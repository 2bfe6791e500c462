package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"qrdtm/internal/proto"
)

// This file defines the pipelined binary framing protocol, the one wire
// protocol the TCP transport speaks.
//
// A client opens every connection with the 4-byte magic
// {0x80,'Q','W',version}; the server closes a connection whose first four
// bytes differ, without running its handler.
//
// After the magic, both directions carry frames:
//
//	u32 BE  payload length (everything after this field)
//	u64 BE  request id (echoed verbatim in the reply)
//	u8      frame kind (frameReq / frameRep)
//	...     kind-specific body
//
// Request body:  varint from-node, then one encoded message.
// Reply body:    u8 status (statusOK + message, or statusErr + uvarint error
//	flags + error text).
//
// A message is its proto.EncodeWire encoding, the one codec for every
// message type. A message the codec cannot encode (an unknown type, an
// unregistered application value) fails its call with an error naming the
// type and is never sent.
//
// The request id lets many calls be in flight on one connection per peer: a
// demux goroutine on the client routes each reply frame to the waiting caller
// by id, and ids with no waiter (the caller gave up on its context) are
// dropped on the floor, leaving the connection healthy.

// wireMagic opens every connection. Version 0x02 dropped the per-message
// encoding byte, so a peer speaking version 0x01 is refused at connect.
var wireMagic = [4]byte{0x80, 'Q', 'W', 0x02}

// Frame kinds.
const (
	frameReq byte = 1
	frameRep byte = 2
)

// Reply statuses.
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// maxFramePayload caps a frame's payload so a corrupt or hostile length
// prefix cannot drive an unbounded allocation.
const maxFramePayload = 64 << 20

var errFrameTooLarge = errors.New("cluster: wire frame exceeds size cap")

// frameBufPool recycles encode/decode scratch buffers across calls; the
// codec copies all decoded strings and byte slices, so a buffer can be
// reused the moment the frame has been written or decoded.
var frameBufPool = sync.Pool{
	New: func() any {
		frameBufNews.Add(1)
		b := make([]byte, 0, 512)
		return &b
	},
}

// Pool traffic counters: gets-puts is the number of buffers currently checked
// out (live), news the number ever allocated. A live count that tracks load
// is healthy; one that only grows means a leak (a frame path missing its
// putFrameBuf).
var frameBufGets, frameBufPuts, frameBufNews atomic.Uint64

func getFrameBuf() *[]byte {
	frameBufGets.Add(1)
	return frameBufPool.Get().(*[]byte)
}

func putFrameBuf(b *[]byte) {
	frameBufPuts.Add(1)
	*b = (*b)[:0]
	frameBufPool.Put(b)
}

// FrameBufStats reports frame-buffer pool traffic: buffers currently checked
// out and the total ever allocated by the pool. Process-wide (the pool is
// shared by every transport in the process).
func FrameBufStats() (live int64, allocated uint64) {
	return int64(frameBufGets.Load()) - int64(frameBufPuts.Load()), frameBufNews.Load()
}

// appendMessage appends msg's binary encoding; a message the codec refuses
// is an error naming its type.
func appendMessage(buf []byte, msg any) ([]byte, error) {
	out, err := proto.EncodeWire(buf, msg)
	if err != nil {
		return buf, fmt.Errorf("cluster: encoding %T: %w", msg, err)
	}
	return out, nil
}

// beginFrame appends a frame's header — length prefix (blank until endFrame),
// request id, frame kind — and endFrame fills in the length once the body has
// been appended after it; start is len(buf) before beginFrame.
func beginFrame(buf []byte, id uint64, kind byte) []byte {
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.BigEndian.AppendUint64(buf, id)
	return append(buf, kind)
}

func endFrame(buf []byte, start int) []byte {
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// appendFrame appends one complete frame around an already-encoded body.
func appendFrame(buf []byte, id uint64, kind byte, body []byte) []byte {
	start := len(buf)
	return endFrame(append(beginFrame(buf, id, kind), body...), start)
}

// appendReplyFrame appends one complete reply frame to buf, encoding the
// reply straight into the frame; a reply that cannot be encoded is sent as
// that encode error instead.
func appendReplyFrame(buf []byte, id uint64, resp any, err error) []byte {
	start := len(buf)
	buf = beginFrame(buf, id, frameRep)
	out, encErr := appendReply(buf, resp, err)
	if encErr != nil {
		out, _ = appendReply(buf, nil, encErr)
	}
	return endFrame(out, start)
}

// appendRequestBody appends a request frame's body: the sender's node id,
// then the encoded message.
func appendRequestBody(buf []byte, from proto.NodeID, req any) ([]byte, error) {
	buf = binary.AppendVarint(buf, int64(from))
	return appendMessage(buf, req)
}

// decodeRequestBody reverses appendRequestBody, interning object ids in ids
// (the connection reader's table).
func decodeRequestBody(b []byte, ids *proto.IDTable) (proto.NodeID, any, error) {
	from, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errors.New("cluster: corrupt request frame")
	}
	msg, err := ids.Decode(b[n:])
	return proto.NodeID(from), msg, err
}

// readFrame reads one frame's payload into buf (growing it as needed) and
// returns the filled slice, which aliases buf's backing array.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	// Peek, not ReadFull into a local: a local passed through io.Reader
	// escapes, one allocation per frame.
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = r.Discard(4) // cannot fail: the four bytes are buffered
	if n > maxFramePayload {
		return nil, errFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Wire error flags: a bitmask, not an enum, because errors.Join-ed faults
// carry several sentinel identities at once (get joins ErrNodeDown AND
// ErrTransient) and collapsing them to one code would strip the transient
// tag from remote-originated faults. Every matching bit is set on encode and
// every set bit is restored as a wrapped sentinel on decode, so errors.Is
// agrees on both ends of the connection.
const (
	wireFlagPanic uint64 = 1 << iota
	wireFlagNodeDown
	wireFlagTransient
	wireFlagCanceled
	wireFlagDeadline
)

// wireSentinels orders the flag↔sentinel mapping; encode and decode both
// walk it so the two directions cannot drift apart.
var wireSentinels = []struct {
	flag uint64
	err  error
}{
	{wireFlagPanic, ErrRemotePanic},
	{wireFlagNodeDown, ErrNodeDown},
	{wireFlagTransient, ErrTransient},
	{wireFlagCanceled, context.Canceled},
	{wireFlagDeadline, context.DeadlineExceeded},
}

// encodeWireError maps an error to its wire flags and text. A nil error is
// (0, ""); a non-nil error with no recognised sentinel is (0, text) — the
// text alone distinguishes it from success on the decode side.
func encodeWireError(err error) (uint64, string) {
	if err == nil {
		return 0, ""
	}
	var flags uint64
	for _, s := range wireSentinels {
		if errors.Is(err, s.err) {
			flags |= s.flag
		}
	}
	msg := err.Error()
	if msg == "" {
		msg = "cluster: remote error"
	}
	return flags, msg
}

// decodeWireError reconstructs the error for wire flags and text, restoring
// every sentinel identity so errors.Is works on the caller's side.
func decodeWireError(flags uint64, msg string) error {
	if flags == 0 && msg == "" {
		return nil
	}
	var sents []error
	for _, s := range wireSentinels {
		if flags&s.flag != 0 {
			sents = append(sents, s.err)
		}
	}
	if len(sents) == 0 {
		return errors.New(msg)
	}
	return &wireError{msg: msg, sents: sents}
}

// wireError is a remote error whose sentinel identities survived the wire.
// Unwrap returns all of them, so errors.Is matches each (multi-sentinel
// faults like ErrNodeDown+ErrTransient keep both marks).
type wireError struct {
	msg   string
	sents []error
}

func (e *wireError) Error() string   { return e.msg }
func (e *wireError) Unwrap() []error { return e.sents }

// appendReply appends a reply frame payload (after the id+kind header):
// the status byte, then either the encoded response or the encoded error.
func appendReply(buf []byte, resp any, err error) ([]byte, error) {
	if err == nil {
		buf = append(buf, statusOK)
		return appendMessage(buf, resp)
	}
	flags, msg := encodeWireError(err)
	buf = append(buf, statusErr)
	buf = binary.AppendUvarint(buf, flags)
	return append(buf, msg...), nil
}

// decodeReply reverses appendReply, interning object ids in ids (the
// connection reader's table).
func decodeReply(b []byte, ids *proto.IDTable) (any, error) {
	if len(b) == 0 {
		return nil, errors.New("cluster: empty reply frame")
	}
	switch b[0] {
	case statusOK:
		return ids.Decode(b[1:])
	case statusErr:
		flags, n := binary.Uvarint(b[1:])
		if n <= 0 {
			return nil, errors.New("cluster: corrupt reply error flags")
		}
		err := decodeWireError(flags, string(b[1+n:]))
		if err == nil {
			err = errors.New("cluster: remote error")
		}
		return nil, err
	default:
		return nil, fmt.Errorf("cluster: unknown reply status %#x", b[0])
	}
}
