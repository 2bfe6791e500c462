package proto

// This file is the hand-rolled binary wire codec for the hot protocol
// messages. The TCP transport's pipelined framing (internal/cluster) and the
// WAL carry these messages in this encoding; only message types the codec
// does not cover travel as a self-contained gob blob (EncodeWire's
// ErrNotWireEncodable is the signal). Compared to gob the codec writes no
// type descriptors, no field names and no per-connection stream state, so a
// PrepareReq that gob spends ~400 bytes on fits in a few dozen, and one
// encoding can be fanned out to every quorum member byte-identically.
//
// Layout conventions (see DESIGN.md §11 for the enclosing frame):
//
//   - one leading type-tag byte (wireTag* below) selects the message;
//   - unsigned scalars are uvarints, signed scalars (nesting depths,
//     checkpoint epochs, which use -1 sentinels) are zigzag varints;
//   - strings and byte slices are length-prefixed (uvarint);
//   - slices are count-prefixed (uvarint); a zero count decodes as nil,
//     matching gob's empty-slice omission so the two codecs are
//     observationally equivalent (the fuzz target pins this);
//   - booleans are one byte (0/1);
//   - Value payloads carry a one-byte kind. The stock implementations in
//     values.go are encoded inline; an application-defined type is
//     wireValApp, its RegisterValue tag, a uvarint length and the bytes of
//     its own AppendBinary. A message holding an unregistered type cannot
//     be encoded (ErrUnregisteredValue).
//
// Decoding is fuzz-hardened: every length is bounds-checked against the
// remaining input before allocation, and malformed input yields an error,
// never a panic or an oversized allocation.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Message type tags. The zero value is reserved so a truncated buffer never
// aliases a valid message.
const (
	wireTagInvalid byte = iota
	wireTagReadReq
	wireTagReadRep
	wireTagBatchReadReq
	wireTagBatchReadRep
	wireTagPrepareReq
	wireTagPrepareRep
	wireTagDecideReq
	wireTagDecideRep
	wireTagReleaseReq
	wireTagReleaseRep
	wireTagLoadReq
	wireTagLoadRep
	wireTagDumpReq
	wireTagDumpRep
)

// Value payload kinds (see values.go for the stock implementations).
const (
	wireValNil byte = iota
	wireValInt64
	wireValFloat64
	wireValString
	wireValBool
	wireValBytes
	wireValInt64Slice
	wireValIDSlice
	_          // older builds' embedded gob blob: left unused so it fails as an unknown kind
	wireValApp // application-defined Value: tag, uvarint length, AppendBinary bytes
)

// ErrNotWireEncodable reports a message type the binary codec does not
// cover; callers fall back to the gob path.
var ErrNotWireEncodable = errors.New("proto: message not wire-encodable")

// ErrUnregisteredValue reports an application-defined Value whose type was
// never passed to RegisterValue; EncodeWire's error names the type.
var ErrUnregisteredValue = errors.New("proto: value type not registered")

// errWireCorrupt reports malformed codec input.
var errWireCorrupt = errors.New("proto: corrupt wire encoding")

// AppendWire appends the binary encoding of msg to buf and reports whether
// it could: a message type the codec does not cover, or one carrying an
// application value it cannot encode, returns (buf, false) with buf
// unchanged. EncodeWire says which.
func AppendWire(buf []byte, msg any) ([]byte, bool) {
	out, err := EncodeWire(buf, msg)
	return out, err == nil
}

// EncodeWire is AppendWire with the reason for a refusal: ErrNotWireEncodable
// for a message type outside the codec, ErrUnregisteredValue for an
// application value whose type is not registered, or the error of a value's
// own AppendBinary. On error buf is returned unchanged.
func EncodeWire(buf []byte, msg any) ([]byte, error) {
	start := len(buf)
	// err is set only by a message's value-carrying fields.
	var err error
	switch m := msg.(type) {
	case ReadReq:
		buf = append(buf, wireTagReadReq)
		buf = binary.AppendUvarint(buf, uint64(m.Txn))
		buf = appendWireString(buf, string(m.Obj))
		buf = appendWireBool(buf, m.Write)
		buf = binary.AppendVarint(buf, int64(m.Depth))
		buf = appendWireItems(buf, m.DataSet)
		buf = appendWireTC(buf, m.TC)
	case ReadRep:
		buf = append(buf, wireTagReadRep)
		buf = appendWireBool(buf, m.OK)
		buf, err = appendWireCopy(buf, m.Copy)
		buf = binary.AppendVarint(buf, int64(m.AbortDepth))
		buf = binary.AppendVarint(buf, int64(m.AbortChk))
		buf = appendWireBool(buf, m.LockOnly)
		buf = appendWireBool(buf, m.WrongShard)
	case BatchReadReq:
		buf = append(buf, wireTagBatchReadReq)
		buf = binary.AppendUvarint(buf, uint64(m.Txn))
		buf = binary.AppendUvarint(buf, uint64(len(m.Objs)))
		for _, id := range m.Objs {
			buf = appendWireString(buf, string(id))
		}
		buf = appendWireBool(buf, m.Write)
		buf = binary.AppendVarint(buf, int64(m.Depth))
		buf = appendWireBool(buf, m.Rqv)
		buf = binary.AppendVarint(buf, int64(m.From))
		buf = appendWireItems(buf, m.Delta)
		buf = appendWireTC(buf, m.TC)
	case BatchReadRep:
		buf = append(buf, wireTagBatchReadRep)
		buf = appendWireBool(buf, m.OK)
		buf, err = appendWireCopies(buf, m.Copies)
		buf = binary.AppendVarint(buf, int64(m.AbortDepth))
		buf = binary.AppendVarint(buf, int64(m.AbortChk))
		buf = appendWireBool(buf, m.LockOnly)
		buf = appendWireBool(buf, m.NeedFull)
		buf = appendWireBool(buf, m.WrongShard)
		if err == nil {
			buf, err = appendWireCopies(buf, m.Prefetch)
		}
	case PrepareReq:
		buf = append(buf, wireTagPrepareReq)
		buf = binary.AppendUvarint(buf, uint64(m.Txn))
		buf = appendWireItems(buf, m.Reads)
		buf, err = appendWireCopies(buf, m.Writes)
		buf = binary.AppendUvarint(buf, uint64(len(m.AbsLocks)))
		for _, l := range m.AbsLocks {
			buf = appendWireString(buf, l)
		}
		buf = binary.AppendUvarint(buf, uint64(m.Owner))
		buf = appendWireTC(buf, m.TC)
	case PrepareRep:
		buf = append(buf, wireTagPrepareRep)
		buf = appendWireBool(buf, m.OK)
		buf = appendWireBool(buf, m.WrongShard)
	case DecideReq:
		buf = append(buf, wireTagDecideReq)
		buf = binary.AppendUvarint(buf, uint64(m.Txn))
		buf = appendWireBool(buf, m.Commit)
		buf, err = appendWireCopies(buf, m.Writes)
		buf = appendWireTC(buf, m.TC)
	case DecideRep:
		buf = append(buf, wireTagDecideRep)
	case ReleaseReq:
		buf = append(buf, wireTagReleaseReq)
		buf = binary.AppendUvarint(buf, uint64(m.Owner))
		buf = appendWireTC(buf, m.TC)
	case ReleaseRep:
		buf = append(buf, wireTagReleaseRep)
	case LoadReq:
		buf = append(buf, wireTagLoadReq)
		buf, err = appendWireCopies(buf, m.Objects)
	case LoadRep:
		buf = append(buf, wireTagLoadRep)
	case DumpReq:
		buf = append(buf, wireTagDumpReq)
		buf = appendWireString(buf, string(m.Obj))
	case DumpRep:
		buf = append(buf, wireTagDumpRep)
		buf = appendWireBool(buf, m.OK)
		buf, err = appendWireCopy(buf, m.Copy)
	default:
		return buf, ErrNotWireEncodable
	}
	if err != nil {
		return buf[:start], err
	}
	return buf, nil
}

// DecodeWire decodes one message produced by AppendWire. Trailing garbage is
// an error: the enclosing frame length must match the encoding exactly.
func DecodeWire(b []byte) (any, error) {
	r := &wireReader{b: b}
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty buffer", errWireCorrupt)
	}
	tag := r.byte()
	var msg any
	switch tag {
	case wireTagReadReq:
		msg = ReadReq{
			Txn:     TxnID(r.uvarint()),
			Obj:     ObjectID(r.str()),
			Write:   r.bool(),
			Depth:   int(r.varint()),
			DataSet: r.items(),
			TC:      r.tc(),
		}
	case wireTagReadRep:
		msg = ReadRep{
			OK:         r.bool(),
			Copy:       r.objCopy(),
			AbortDepth: int(r.varint()),
			AbortChk:   int(r.varint()),
			LockOnly:   r.bool(),
			WrongShard: r.bool(),
		}
	case wireTagBatchReadReq:
		m := BatchReadReq{Txn: TxnID(r.uvarint())}
		if n := r.sliceLen(1); n > 0 {
			m.Objs = make([]ObjectID, 0, n)
			for i := 0; i < n; i++ {
				m.Objs = append(m.Objs, ObjectID(r.str()))
			}
		}
		m.Write = r.bool()
		m.Depth = int(r.varint())
		m.Rqv = r.bool()
		m.From = int(r.varint())
		m.Delta = r.items()
		m.TC = r.tc()
		msg = m
	case wireTagBatchReadRep:
		msg = BatchReadRep{
			OK:         r.bool(),
			Copies:     r.copies(),
			AbortDepth: int(r.varint()),
			AbortChk:   int(r.varint()),
			LockOnly:   r.bool(),
			NeedFull:   r.bool(),
			WrongShard: r.bool(),
			Prefetch:   r.copies(),
		}
	case wireTagPrepareReq:
		m := PrepareReq{Txn: TxnID(r.uvarint())}
		m.Reads = r.items()
		m.Writes = r.copies()
		if n := r.sliceLen(1); n > 0 {
			m.AbsLocks = make([]string, 0, n)
			for i := 0; i < n; i++ {
				m.AbsLocks = append(m.AbsLocks, r.str())
			}
		}
		m.Owner = TxnID(r.uvarint())
		m.TC = r.tc()
		msg = m
	case wireTagPrepareRep:
		msg = PrepareRep{OK: r.bool(), WrongShard: r.bool()}
	case wireTagDecideReq:
		msg = DecideReq{
			Txn:    TxnID(r.uvarint()),
			Commit: r.bool(),
			Writes: r.copies(),
			TC:     r.tc(),
		}
	case wireTagDecideRep:
		msg = DecideRep{}
	case wireTagReleaseReq:
		msg = ReleaseReq{Owner: TxnID(r.uvarint()), TC: r.tc()}
	case wireTagReleaseRep:
		msg = ReleaseRep{}
	case wireTagLoadReq:
		msg = LoadReq{Objects: r.copies()}
	case wireTagLoadRep:
		msg = LoadRep{}
	case wireTagDumpReq:
		msg = DumpReq{Obj: ObjectID(r.str())}
	case wireTagDumpRep:
		msg = DumpRep{OK: r.bool(), Copy: r.objCopy()}
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", errWireCorrupt, tag)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errWireCorrupt, len(r.b)-r.off)
	}
	return msg, nil
}

// WireEncodable reports whether msg is covered by the binary codec without
// encoding it (multicast planning).
func WireEncodable(msg any) bool {
	switch msg.(type) {
	case ReadReq, ReadRep, BatchReadReq, BatchReadRep, PrepareReq, PrepareRep,
		DecideReq, DecideRep, ReleaseReq, ReleaseRep, LoadReq, LoadRep, DumpReq, DumpRep:
		return true
	default:
		return false
	}
}

// ---- encode helpers ----

func appendWireBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendWireString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendWireTC writes the trace context with a presence byte so untraced
// runs pay one byte, not three varints.
func appendWireTC(buf []byte, tc TraceContext) []byte {
	if !tc.Valid() {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, tc.Trace)
	buf = binary.AppendUvarint(buf, tc.Span)
	return binary.AppendUvarint(buf, tc.Parent)
}

func appendWireItems(buf []byte, items []DataItem) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = appendWireString(buf, string(it.ID))
		buf = binary.AppendUvarint(buf, uint64(it.Version))
		buf = binary.AppendVarint(buf, int64(it.OwnerDepth))
		buf = binary.AppendVarint(buf, int64(it.OwnerChk))
	}
	return buf
}

func appendWireCopy(buf []byte, c ObjectCopy) ([]byte, error) {
	buf = appendWireString(buf, string(c.ID))
	buf = binary.AppendUvarint(buf, uint64(c.Version))
	return appendWireValue(buf, c.Val)
}

func appendWireCopies(buf []byte, cs []ObjectCopy) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(cs)))
	for _, c := range cs {
		var err error
		if buf, err = appendWireCopy(buf, c); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

func appendWireValue(buf []byte, v Value) ([]byte, error) {
	switch val := v.(type) {
	case nil:
		return append(buf, wireValNil), nil
	case Int64:
		buf = append(buf, wireValInt64)
		return binary.AppendVarint(buf, int64(val)), nil
	case Float64:
		buf = append(buf, wireValFloat64)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(float64(val)))
		return append(buf, b[:]...), nil
	case String:
		buf = append(buf, wireValString)
		return appendWireString(buf, string(val)), nil
	case Bool:
		buf = append(buf, wireValBool)
		return appendWireBool(buf, bool(val)), nil
	case Bytes:
		buf = append(buf, wireValBytes)
		buf = binary.AppendUvarint(buf, uint64(len(val)))
		return append(buf, val...), nil
	case Int64Slice:
		buf = append(buf, wireValInt64Slice)
		buf = binary.AppendUvarint(buf, uint64(len(val)))
		for _, n := range val {
			buf = binary.AppendVarint(buf, n)
		}
		return buf, nil
	case IDSlice:
		buf = append(buf, wireValIDSlice)
		buf = binary.AppendUvarint(buf, uint64(len(val)))
		for _, id := range val {
			buf = appendWireString(buf, string(id))
		}
		return buf, nil
	default:
		return appendAppValue(buf, v)
	}
}

// appendAppValue writes an application-defined value: wireValApp, its
// registered tag, a uvarint length and the value's own AppendBinary bytes.
// The payload is appended behind a one-byte length, which is widened in
// place in the rare case the payload reaches 128 bytes.
func appendAppValue(buf []byte, v Value) ([]byte, error) {
	tag, ok := valueReg.Load().tagOf(v)
	if !ok {
		return buf, fmt.Errorf("%w: %T (see RegisterValue)", ErrUnregisteredValue, v)
	}
	start := len(buf)
	buf = append(buf, wireValApp, tag, 0)
	payload := len(buf)
	buf, err := v.(BinaryValue).AppendBinary(buf)
	if err != nil {
		return buf[:start], fmt.Errorf("proto: encoding %T: %w", v, err)
	}
	n := len(buf) - payload
	if n < 0x80 {
		buf[payload-1] = byte(n)
		return buf, nil
	}
	var lenBuf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(lenBuf[:], uint64(n))
	buf = append(buf, lenBuf[:k-1]...) // grow by the extra length bytes
	copy(buf[payload-1+k:], buf[payload:payload+n])
	copy(buf[payload-1:], lenBuf[:k])
	return buf, nil
}

// ---- decode helpers ----

// wireReader is a bounds-checked cursor over one encoded message. The first
// error sticks; subsequent reads return zero values so decode code stays
// linear.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", errWireCorrupt, what, r.off)
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("truncated byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) bool() bool { return r.byte() != 0 }

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// sliceLen reads a count prefix and bounds it: each element needs at least
// minBytes of remaining input, so a hostile count cannot drive a huge
// allocation.
func (r *wireReader) sliceLen(minBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(len(r.b)-r.off)/uint64(minBytes)+1 {
		r.fail("slice length exceeds input")
		return 0
	}
	return int(n)
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("truncated bytes")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *wireReader) str() string { return string(r.take(int(r.uvarint()))) }

func (r *wireReader) tc() TraceContext {
	if r.byte() == 0 {
		return TraceContext{}
	}
	return TraceContext{Trace: r.uvarint(), Span: r.uvarint(), Parent: r.uvarint()}
}

func (r *wireReader) items() []DataItem {
	n := r.sliceLen(4)
	if n == 0 {
		return nil
	}
	items := make([]DataItem, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, DataItem{
			ID:         ObjectID(r.str()),
			Version:    Version(r.uvarint()),
			OwnerDepth: int(r.varint()),
			OwnerChk:   int(r.varint()),
		})
		if r.err != nil {
			return nil
		}
	}
	return items
}

func (r *wireReader) objCopy() ObjectCopy {
	return ObjectCopy{ID: ObjectID(r.str()), Version: Version(r.uvarint()), Val: r.value()}
}

func (r *wireReader) copies() []ObjectCopy {
	n := r.sliceLen(3)
	if n == 0 {
		return nil
	}
	cs := make([]ObjectCopy, 0, n)
	for i := 0; i < n; i++ {
		cs = append(cs, r.objCopy())
		if r.err != nil {
			return nil
		}
	}
	return cs
}

func (r *wireReader) value() Value {
	switch kind := r.byte(); kind {
	case wireValNil:
		return nil
	case wireValInt64:
		return Int64(r.varint())
	case wireValFloat64:
		b := r.take(8)
		if len(b) != 8 {
			return nil
		}
		return Float64(math.Float64frombits(binary.BigEndian.Uint64(b)))
	case wireValString:
		return String(r.str())
	case wireValBool:
		return Bool(r.bool())
	case wireValBytes:
		// Zero-length slice payloads decode as typed nils, as they do when an
		// interface-held empty slice crosses gob.
		b := r.take(int(r.uvarint()))
		if len(b) == 0 {
			return Bytes(nil)
		}
		out := make(Bytes, len(b))
		copy(out, b)
		return out
	case wireValInt64Slice:
		n := r.sliceLen(1)
		if n == 0 {
			return Int64Slice(nil)
		}
		out := make(Int64Slice, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, r.varint())
		}
		if r.err != nil {
			return nil
		}
		return out
	case wireValIDSlice:
		n := r.sliceLen(1)
		if n == 0 {
			return IDSlice(nil)
		}
		out := make(IDSlice, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, ObjectID(r.str()))
		}
		if r.err != nil {
			return nil
		}
		return out
	case wireValApp:
		tag := r.byte()
		payload := r.take(int(r.uvarint()))
		if r.err != nil {
			return nil
		}
		decode := valueReg.Load().decoder(tag)
		if decode == nil {
			r.fail(fmt.Sprintf("unknown value tag %d", tag))
			return nil
		}
		v, err := decode(payload)
		if err == nil && v == nil {
			err = errors.New("decoder returned nil")
		}
		if err != nil {
			r.fail(fmt.Sprintf("value tag %d: %v", tag, err))
			return nil
		}
		return v
	default:
		r.fail(fmt.Sprintf("unknown value kind %d", kind))
		return nil
	}
}
