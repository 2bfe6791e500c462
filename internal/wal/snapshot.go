package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

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
// (u32 len | u32 crc32c | gob(SnapshotState)). Atomicity comes from the
// write path (temp file + fsync + rename + directory fsync), so a snapshot
// file is always entirely old or entirely new; the CRC guards against media
// corruption, not torn writes.
const snapMagic = "QSNP\x01"

// writeSnapshot atomically replaces dir/name with the encoded state and
// returns the file's size.
func writeSnapshot(dir, name string, state SnapshotState) (int64, error) {
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(state); err != nil {
		return 0, fmt.Errorf("wal: encoding snapshot: %w", err)
	}
	buf := make([]byte, 0, len(snapMagic)+frameHeaderSize+blob.Len())
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(blob.Len()))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(blob.Bytes(), crcTable))
	buf = append(buf, blob.Bytes()...)

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
	var state SnapshotState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&state); err != nil {
		return nil, 0, fmt.Errorf("wal: decoding snapshot %s: %w", path, err)
	}
	return &state, int64(len(b)), nil
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
