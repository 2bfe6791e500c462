// Package wal gives a replica durable state: an append-only, CRC-framed,
// group-committed write-ahead log of the store mutations a replica
// acknowledges (prepare protections, commit/abort decisions, installs,
// bootstrap loads, shard-map changes, catch-up cursors), periodic snapshots
// of the full store state, and restart-time restore (snapshot + log-tail
// replay, truncating any torn tail at the first bad CRC). See DESIGN.md §15.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"qrdtm/internal/proto"
)

// Kind tags what a log record re-applies on replay.
type Kind uint8

const (
	// KindPrepare records a positive prepare vote: the named transaction's
	// write-set objects are protected. Logged before the vote is acked, so a
	// restarted replica still honours every promise it made. The record also
	// carries the prepare's abstract locks, but replay deliberately does NOT
	// re-grant them: pre-crash abstract locks are volatile coordination state
	// (see Replica.Restore).
	KindPrepare Kind = iota + 1
	// KindDecide records a commit/abort decision: writes installed (commit)
	// or protections released (abort).
	KindDecide
	// KindLoad records an unconditional bootstrap Load.
	KindLoad
	// KindInstall records a recovery-sync InstallNewer batch.
	KindInstall
	// KindMap records a shard-map installation (epoch-guarded on replay).
	KindMap
	// KindCursor records the per-peer catch-up cursor: the highest record
	// index of the peer's log this replica has applied via log-tail catch-up.
	KindCursor
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPrepare:
		return "prepare"
	case KindDecide:
		return "decide"
	case KindLoad:
		return "load"
	case KindInstall:
		return "install"
	case KindMap:
		return "map"
	case KindCursor:
		return "cursor"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Cursor is the payload of a KindCursor record: this replica has applied
// peer's log records up to (and including) Index via log-tail catch-up.
type Cursor struct {
	Peer  proto.NodeID
	Index uint64
}

// Record is one decoded log entry.
type Record struct {
	Index uint64
	Kind  Kind
	// Msg is the record payload: proto.PrepareReq, proto.DecideReq,
	// proto.LoadReq, proto.InstallReq, proto.MapUpdateReq or Cursor,
	// matching Kind.
	Msg any
}

// Frame layout (little-endian):
//
//	u32 bodyLen | u32 crc32c(body) | body
//	body := u64 index | kind(1) | payload
//
// The payload is the message's proto.EncodeWire encoding, except a cursor's,
// which is its peer and index as two u64s. The CRC covers the whole body, so
// replay detects a torn or corrupted record before looking at any of its
// fields.
const (
	frameHeaderSize = 8 // bodyLen + crc
	bodyPrefixSize  = 9 // index + kind

	// maxRecordSize bounds one record's body. Mirrors the wire frame cap: a
	// larger length prefix is treated as corruption, not an allocation order.
	maxRecordSize = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks a frame that fails structural or CRC validation. Replay
// treats it as the end of the log (torn tail), not as a fatal error.
var errCorrupt = errors.New("wal: corrupt record")

// errUndecodable marks a frame whose CRC checks out but whose payload does
// not decode. That is no torn write but a record this build cannot read (one
// holding a value whose type this build did not register, say), so replay
// refuses the log rather than truncate acknowledged records away.
var errUndecodable = errors.New("wal: undecodable record")

// ErrClosed is returned by Append and Snapshot after Close.
var ErrClosed = errors.New("wal: closed")

// appendFrame encodes one record onto buf.
func appendFrame(buf []byte, index uint64, kind Kind, msg any) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	bodyStart := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, index)
	buf = append(buf, byte(kind))
	if m, ok := msg.(Cursor); ok {
		// Fixed-size hand encoding: cursors are tiny and hot during catch-up.
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.Peer)))
		buf = binary.LittleEndian.AppendUint64(buf, m.Index)
	} else {
		out, err := proto.EncodeWire(buf, msg)
		if err != nil {
			return buf[:start], fmt.Errorf("wal: encoding %T: %w", msg, err)
		}
		buf = out
	}
	body := buf[bodyStart:]
	if len(body) > maxRecordSize {
		return buf[:start], fmt.Errorf("wal: record of %d bytes exceeds the %d byte cap", len(body), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, crcTable))
	return buf, nil
}

// decodeFrame decodes the first record in b. It returns the record, the
// total frame size consumed, and an error: io.ErrUnexpectedEOF-like short
// frames and CRC mismatches all surface as errCorrupt — the caller treats
// the log as ending at the previous record. A frame whose CRC checks out but
// whose payload does not decode is errUndecodable instead.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, fmt.Errorf("%w: short frame header (%d bytes)", errCorrupt, len(b))
	}
	bodyLen := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if bodyLen < bodyPrefixSize || bodyLen > maxRecordSize {
		return Record{}, 0, fmt.Errorf("%w: implausible body length %d", errCorrupt, bodyLen)
	}
	if uint64(len(b)-frameHeaderSize) < uint64(bodyLen) {
		return Record{}, 0, fmt.Errorf("%w: truncated body (%d of %d bytes)", errCorrupt, len(b)-frameHeaderSize, bodyLen)
	}
	body := b[frameHeaderSize : frameHeaderSize+int(bodyLen)]
	if crc32.Checksum(body, crcTable) != crc {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", errCorrupt)
	}
	rec := Record{
		Index: binary.LittleEndian.Uint64(body),
		Kind:  Kind(body[8]),
	}
	payload := body[bodyPrefixSize:]
	if rec.Kind == KindCursor {
		if len(payload) != 16 {
			return Record{}, 0, fmt.Errorf("%w: malformed cursor payload", errUndecodable)
		}
		rec.Msg = Cursor{
			Peer:  proto.NodeID(int64(binary.LittleEndian.Uint64(payload))),
			Index: binary.LittleEndian.Uint64(payload[8:]),
		}
	} else {
		var err error
		if rec.Msg, err = proto.DecodeWire(payload); err != nil {
			return Record{}, 0, fmt.Errorf("%w: %v", errUndecodable, err)
		}
	}
	if !kindMatches(rec.Kind, rec.Msg) {
		return Record{}, 0, fmt.Errorf("%w: kind %v carries %T", errUndecodable, rec.Kind, rec.Msg)
	}
	return rec, frameHeaderSize + int(bodyLen), nil
}

// kindMatches pins the kind↔payload pairing, so a decoded record can be
// switch-applied without re-checking types.
func kindMatches(k Kind, msg any) bool {
	switch k {
	case KindPrepare:
		_, ok := msg.(proto.PrepareReq)
		return ok
	case KindDecide:
		_, ok := msg.(proto.DecideReq)
		return ok
	case KindLoad:
		_, ok := msg.(proto.LoadReq)
		return ok
	case KindInstall:
		_, ok := msg.(proto.InstallReq)
		return ok
	case KindMap:
		_, ok := msg.(proto.MapUpdateReq)
		return ok
	case KindCursor:
		_, ok := msg.(Cursor)
		return ok
	}
	return false
}
