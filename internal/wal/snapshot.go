package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"qrdtm/internal/proto"
	"qrdtm/internal/store"
)

// SnapshotState is everything a replica must persist beyond the log to
// restart: the store's object table (committed copies + commit locks), the
// per-peer catch-up cursors, and the shard map it was serving under.
// AppliedIndex is the log index the snapshot covers: restore replays only
// records past it.
type SnapshotState struct {
	AppliedIndex uint64
	Objects      []store.Entry
	Cursors      map[proto.NodeID]uint64
	Map          proto.ShardMap
}

// Snapshot file layout: the segment-style magic, then ONE CRC frame
// (u32 len | u32 crc32c | body). Atomicity comes from the write path (temp
// file + fsync + rename + directory fsync), so a snapshot file is always
// entirely old or entirely new; the CRC guards against media corruption, not
// torn writes. The body carries values in the wire codec, so a value has the
// one encoding it has on the wire and in log records:
//
//	uvarint AppliedIndex
//	u32 len | proto.MapUpdateReq{Map}                          (EncodeWire)
//	u32 len | proto.InstallReq{the objects' copies, by id}     (EncodeWire)
//	per object, in the same order: protected(1) | uvarint protector
//	uvarint count | per cursor, by peer: uvarint peer | uvarint index
//
// Sorting makes the bytes a function of the state alone.
const snapMagic = "QSNP\x02"

// writeSnapshot atomically replaces dir/name with the encoded state and
// returns the file's size.
func writeSnapshot(dir, name string, state SnapshotState) (int64, error) {
	buf, err := encodeSnapshot(append([]byte(snapMagic), make([]byte, frameHeaderSize)...), state)
	if err != nil {
		return 0, err
	}
	body := buf[len(snapMagic)+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[len(snapMagic):], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[len(snapMagic)+4:], crc32.Checksum(body, crcTable))

	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("wal: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return 0, fmt.Errorf("wal: installing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil { // make the rename itself durable
		return 0, fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return int64(len(buf)), nil
}

// readSnapshot loads dir's snapshot file. A missing file is not an error
// (nil state); a present-but-corrupt one is — the write path is atomic, so
// corruption means the medium lied and silently dropping the state would
// violate durability.
func readSnapshot(path string) (*SnapshotState, int64, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	if len(b) < len(snapMagic)+frameHeaderSize || string(b[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("wal: %s is not a snapshot (bad magic)", path)
	}
	body := b[len(snapMagic):]
	blobLen := binary.LittleEndian.Uint32(body)
	crc := binary.LittleEndian.Uint32(body[4:])
	if uint64(len(body)-frameHeaderSize) != uint64(blobLen) {
		return nil, 0, fmt.Errorf("wal: snapshot %s truncated (%d of %d bytes)", path, len(body)-frameHeaderSize, blobLen)
	}
	blob := body[frameHeaderSize:]
	if crc32.Checksum(blob, crcTable) != crc {
		return nil, 0, fmt.Errorf("wal: snapshot %s failed CRC", path)
	}
	state, err := decodeSnapshot(blob)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: snapshot %s: %w", path, err)
	}
	return state, int64(len(b)), nil
}

// encodeSnapshot appends the snapshot body for state to buf. It sorts
// state.Objects in place.
func encodeSnapshot(buf []byte, state SnapshotState) ([]byte, error) {
	slices.SortFunc(state.Objects, func(a, b store.Entry) int { return cmp.Compare(a.Copy.ID, b.Copy.ID) })
	copies := make([]proto.ObjectCopy, len(state.Objects))
	for i, e := range state.Objects {
		copies[i] = e.Copy
	}
	buf = binary.AppendUvarint(buf, state.AppliedIndex)
	for _, msg := range []any{proto.MapUpdateReq{Map: state.Map}, proto.InstallReq{Copies: copies}} {
		at := len(buf)
		out, err := proto.EncodeWire(append(buf, 0, 0, 0, 0), msg)
		if err != nil {
			return buf, fmt.Errorf("wal: encoding snapshot: %w", err)
		}
		buf = out
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	for _, e := range state.Objects {
		var protected byte
		if e.Protected {
			protected = 1
		}
		buf = binary.AppendUvarint(append(buf, protected), uint64(e.Protector))
	}
	peers := make([]proto.NodeID, 0, len(state.Cursors))
	for p := range state.Cursors {
		peers = append(peers, p)
	}
	slices.Sort(peers)
	buf = binary.AppendUvarint(buf, uint64(len(peers)))
	for _, p := range peers {
		buf = binary.AppendUvarint(buf, uint64(p))
		buf = binary.AppendUvarint(buf, state.Cursors[p])
	}
	return buf, nil
}

// decodeSnapshot reverses encodeSnapshot; malformed input is an error.
func decodeSnapshot(b []byte) (*SnapshotState, error) {
	r := &snapReader{b: b}
	state := &SnapshotState{AppliedIndex: r.uvarint()}
	upd, _ := r.message().(proto.MapUpdateReq)
	inst, ok := r.message().(proto.InstallReq)
	if !ok {
		r.fail("no object table")
	}
	state.Map = upd.Map
	for _, c := range inst.Copies {
		protected := r.flag()
		state.Objects = append(state.Objects, store.Entry{Copy: c, Protected: protected, Protector: proto.TxnID(r.uvarint())})
	}
	n := r.uvarint()
	if n > uint64(len(r.b)/2) {
		r.fail("cursor count exceeds input")
	} else if n > 0 {
		state.Cursors = make(map[proto.NodeID]uint64, n)
		for ; n > 0; n-- {
			peer := proto.NodeID(r.uvarint())
			state.Cursors[peer] = r.uvarint()
		}
	}
	if len(r.b) != 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, r.err
	}
	return state, nil
}

// snapReader is a bounds-checked cursor over a snapshot body. The first
// failure sticks and empties the input, so every later read fails too.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("corrupt body: %s", what)
	}
	r.b = nil
}

func (r *snapReader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail("truncated")
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *snapReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) flag() bool {
	b := r.take(1)
	if len(b) == 1 && b[0] > 1 {
		r.fail("bad flag")
	}
	return len(b) == 1 && b[0] == 1
}

// message reads one u32-length-prefixed codec message.
func (r *snapReader) message() any {
	n := r.take(4)
	if n == nil {
		return nil
	}
	msg, err := proto.DecodeWire(r.take(uint64(binary.LittleEndian.Uint32(n))))
	if err != nil {
		r.fail(err.Error())
	}
	return msg
}

// Apply replays one log record into the store. Replay runs records in
// original log order, so the store converges to exactly the state whose
// mutations were acked before the crash:
//
//   - Prepare re-protects the write set for the voting transaction (but does
//     NOT re-grant the prepare's abstract locks: those are volatile
//     coordination state dropped on restart, per Store.DropLocks — the
//     object protections must survive, because the decide may still arrive
//     via catch-up; see DESIGN.md §15).
//   - Decide installs the writes (commit) or releases the protections
//     (abort). Store.Commit is version-guarded and Abort only undoes the
//     transaction's own locks, so re-applying a record whose effects a
//     snapshot already captured is harmless — which is what makes the
//     snapshot/tail overlap safe.
//   - Load and Install replay the bootstrap/recovery installs.
//
// Map and Cursor records are replica-level state and return false (the
// caller routes them); every store-level record returns true.
func Apply(st *store.Store, rec Record) bool {
	switch m := rec.Msg.(type) {
	case proto.PrepareReq:
		ids := make([]proto.ObjectID, len(m.Writes))
		for i, w := range m.Writes {
			ids[i] = w.ID
		}
		st.Protect(m.Txn, ids)
	case proto.DecideReq:
		if m.Commit {
			st.Commit(m.Txn, m.Writes)
		} else {
			ids := make([]proto.ObjectID, len(m.Writes))
			for i, w := range m.Writes {
				ids[i] = w.ID
			}
			st.Abort(m.Txn, ids)
		}
	case proto.LoadReq:
		st.Load(m.Objects)
	case proto.InstallReq:
		st.InstallNewer(m.Copies)
	default:
		return false
	}
	return true
}
