package bench

import (
	"encoding/binary"
	"errors"
	"fmt"

	"qrdtm/internal/proto"
)

// This file gives every benchmark value type its binary encoding, so that
// the TCP transport and the WAL carry them in the proto codec (see
// proto.RegisterValue). Integers are zigzag varints, object ids are
// uvarint-length-prefixed bytes, and a decoder accepts exactly what the
// matching AppendBinary writes: truncated input, trailing bytes and
// non-0/1 booleans are errors.

// Value tags, unique within the process (proto.RegisterValue).
const (
	tagChainNode byte = iota + 1
	tagRBNode
	tagBSTNode
	tagSkipNode
	tagReservationItem
	tagCustomerRecord
	tagChainHead
)

func init() {
	proto.RegisterValue(tagChainNode, ChainNode{}, decodeChainNode)
	proto.RegisterValue(tagRBNode, RBNode{}, decodeRBNode)
	proto.RegisterValue(tagBSTNode, BSTNode{}, decodeBSTNode)
	proto.RegisterValue(tagSkipNode, SkipNode{}, decodeSkipNode)
	proto.RegisterValue(tagReservationItem, ReservationItem{}, decodeReservationItem)
	proto.RegisterValue(tagCustomerRecord, CustomerRecord{}, decodeCustomerRecord)
	proto.RegisterValue(tagChainHead, ChainHead{}, decodeChainHead)
}

// AppendBinary implements proto.BinaryValue.
func (n ChainNode) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, n.Key)
	return appendID(b, n.Next), nil
}

func decodeChainNode(b []byte) (proto.Value, error) {
	r := valueReader{b: b}
	n := ChainNode{Key: r.varint(), Next: r.id()}
	return n, r.done()
}

// AppendBinary implements proto.BinaryValue.
func (h ChainHead) AppendBinary(b []byte) ([]byte, error) {
	return appendID(b, h.First), nil
}

func decodeChainHead(b []byte) (proto.Value, error) {
	r := valueReader{b: b}
	h := ChainHead{First: r.id()}
	return h, r.done()
}

// AppendBinary implements proto.BinaryValue.
func (n RBNode) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, n.Key)
	if n.Red {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendID(b, n.L)
	b = appendID(b, n.R)
	return appendID(b, n.P), nil
}

func decodeRBNode(b []byte) (proto.Value, error) {
	r := valueReader{b: b}
	n := RBNode{Key: r.varint(), Red: r.bool(), L: r.id(), R: r.id(), P: r.id()}
	return n, r.done()
}

// AppendBinary implements proto.BinaryValue.
func (n BSTNode) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, n.Key)
	b = appendID(b, n.L)
	return appendID(b, n.R), nil
}

func decodeBSTNode(b []byte) (proto.Value, error) {
	r := valueReader{b: b}
	n := BSTNode{Key: r.varint(), L: r.id(), R: r.id()}
	return n, r.done()
}

// AppendBinary implements proto.BinaryValue. An empty Forward decodes as
// nil, as empty slices do throughout the codec.
func (n SkipNode) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, n.Key)
	b = binary.AppendUvarint(b, uint64(len(n.Forward)))
	for _, id := range n.Forward {
		b = appendID(b, id)
	}
	return b, nil
}

func decodeSkipNode(b []byte) (proto.Value, error) {
	r := valueReader{b: b}
	n := SkipNode{Key: r.varint()}
	// Every id costs at least its length byte, which bounds the count.
	if count := r.uvarint(); count > 0 && r.err == nil {
		if count > uint64(len(r.b)) {
			return nil, errValueCorrupt
		}
		n.Forward = make(proto.IDSlice, count)
		for i := range n.Forward {
			n.Forward[i] = r.id()
		}
	}
	return n, r.done()
}

// AppendBinary implements proto.BinaryValue.
func (r ReservationItem) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, r.Price)
	b = binary.AppendVarint(b, r.Total)
	return binary.AppendVarint(b, r.Used), nil
}

func decodeReservationItem(b []byte) (proto.Value, error) {
	r := valueReader{b: b}
	it := ReservationItem{Price: r.varint(), Total: r.varint(), Used: r.varint()}
	return it, r.done()
}

// AppendBinary implements proto.BinaryValue.
func (c CustomerRecord) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, c.Count)
	return binary.AppendVarint(b, c.Spent), nil
}

func decodeCustomerRecord(b []byte) (proto.Value, error) {
	r := valueReader{b: b}
	c := CustomerRecord{Count: r.varint(), Spent: r.varint()}
	return c, r.done()
}

func appendID(b []byte, id proto.ObjectID) []byte {
	b = binary.AppendUvarint(b, uint64(len(id)))
	return append(b, id...)
}

var errValueCorrupt = errors.New("bench: corrupt value encoding")

// valueReader consumes one encoded value from the front of b. The first
// error sticks and later reads return zero values, so decoders stay linear.
type valueReader struct {
	b   []byte
	err error
}

func (r *valueReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errValueCorrupt
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *valueReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errValueCorrupt
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *valueReader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 || r.b[0] > 1 {
		r.err = errValueCorrupt
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

func (r *valueReader) id() proto.ObjectID {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.err = errValueCorrupt
		return ""
	}
	id := proto.ObjectID(r.b[:n])
	r.b = r.b[n:]
	return id
}

// done reports the first decode error, or trailing bytes after the value.
func (r *valueReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("%w: %d trailing bytes", errValueCorrupt, len(r.b))
	}
	return r.err
}
