package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"qrdtm/internal/proto"
	"qrdtm/internal/store"
)

// This file is the torn-write/corruption battery: truncation at every byte
// offset of the log, bit flips over every byte, and injected short
// writes/sync failures — proving replay stops at the first bad CRC, never
// applies a partial record, and surfaces write failures as sticky append
// errors instead of silent data loss.

// buildLog writes n cursor records into a fresh dir and returns the single
// segment's path plus the byte offset where each record's frame starts
// (offsets[i] = start of record i+1; a final entry marks end-of-file).
func buildLog(t *testing.T, dir string, n int) (string, []int64) {
	t.Helper()
	w, _ := openT(t, dir, Options{})
	for i := 1; i <= n; i++ {
		if err := w.Append(KindCursor, Cursor{Peer: proto.NodeID(i), Index: uint64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one segment, got %v (err %v)", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{int64(len(segMagic))}
	off := int64(len(segMagic))
	for off < int64(len(b)) {
		_, sz, err := decodeFrame(b[off:])
		if err != nil {
			t.Fatalf("clean log undecodable at %d: %v", off, err)
		}
		off += int64(sz)
		offsets = append(offsets, off)
	}
	return segs[0], offsets
}

// intactBelow counts how many whole records fit under size bytes.
func intactBelow(offsets []int64, size int64) int {
	n := 0
	for i := 1; i < len(offsets); i++ {
		if offsets[i] <= size {
			n = i
		}
	}
	return n
}

// TestTruncationAtEveryOffset simulates a crash torn at every possible byte
// boundary of the log: replay must recover exactly the records whose frames
// are entirely below the cut, report the tear, and leave the log appendable.
func TestTruncationAtEveryOffset(t *testing.T) {
	const n = 5
	src, offsets := buildLog(t, t.TempDir(), n)
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(len(segMagic)); cut < int64(len(whole)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, res, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		want := intactBelow(offsets, cut)
		if len(res.Records) != want {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(res.Records), want)
		}
		atBoundary := offsets[want] == cut
		if res.Torn == atBoundary {
			t.Fatalf("cut=%d: Torn=%v but boundary=%v", cut, res.Torn, atBoundary)
		}
		// The log must remain writable: the torn suffix was truncated and
		// the next record continues the index sequence.
		if err := w.Append(KindCursor, Cursor{Peer: 99, Index: 99}); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, res2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(res2.Records) != want+1 || res2.Torn {
			t.Fatalf("cut=%d: after repair+append replayed %d (torn=%v), want %d clean", cut, len(res2.Records), res2.Torn, want+1)
		}
		last := res2.Records[len(res2.Records)-1]
		if last.Index != uint64(want+1) || last.Msg.(Cursor).Peer != 99 {
			t.Fatalf("cut=%d: post-repair record wrong: %+v", cut, last)
		}
		w2.Close()
	}
}

// TestBitFlipAtEveryByte flips each byte of the log in turn: replay must
// stop before the record containing the flip (first bad CRC) and never
// surface a half-valid record.
func TestBitFlipAtEveryByte(t *testing.T) {
	const n = 5
	src, offsets := buildLog(t, t.TempDir(), n)
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for pos := int64(len(segMagic)); pos < int64(len(whole)); pos++ {
		mut := append([]byte(nil), whole...)
		mut[pos] ^= 0x40
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		w, res, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("flip@%d: Open: %v", pos, err)
		}
		// Records wholly before the flipped record must replay; the flipped
		// one and everything after (unreachable once framing is broken) must
		// not. A flipped length field can misalign all later frames, so the
		// only guarantee is "exactly the prefix".
		want := intactBelow(offsets, pos)
		if len(res.Records) != want || !res.Torn {
			t.Fatalf("flip@%d: replayed %d records (torn=%v), want %d torn", pos, len(res.Records), res.Torn, want)
		}
		for i, rec := range res.Records {
			if rec.Index != uint64(i+1) || rec.Msg.(Cursor).Index != uint64((i+1)*10) {
				t.Fatalf("flip@%d: surviving record %d corrupted: %+v", pos, i, rec)
			}
		}
		w.Close()
	}
}

// TestCorruptSealedSegmentFatal: damage below an intact later segment is
// media corruption, not a crash artifact — Open must refuse rather than
// silently skip records from the middle of the log.
func TestCorruptSealedSegmentFatal(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	w.SetSnapshotSource(func() (SnapshotState, error) { return SnapshotState{}, nil })
	for i := 1; i <= 3; i++ {
		if err := w.Append(KindCursor, Cursor{Peer: 1, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot to rotate the log onto a second segment file.
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 6; i++ {
		if err := w.Append(KindCursor, Cursor{Peer: 1, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) != 1 {
		t.Fatalf("fixture: %v", segs)
	}
	// Compaction removed the sealed segment; fabricate an older one holding
	// a structurally bad record, below the intact active segment.
	bad := append([]byte(segMagic), 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, snapName)) // force replay from both segments
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment below an intact one")
	}
}

// faultFile injects write-path failures: it passes through to the real file
// until trip bytes have been written, then writes a partial chunk and fails
// every call after that — the kernel-level behaviour of a crashed or
// out-of-space disk.
type faultFile struct {
	walFile
	budget  *int // shared across flushes; nil entries pass through
	syncErr bool // fail both fsync and fdatasync
}

var errInjected = errors.New("injected I/O failure")

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if ff.budget == nil {
		return ff.walFile.WriteAt(p, off)
	}
	if *ff.budget <= 0 {
		return 0, errInjected
	}
	if len(p) > *ff.budget {
		n, _ := ff.walFile.WriteAt(p[:*ff.budget], off)
		*ff.budget = 0
		return n, fmt.Errorf("%w: short write", errInjected)
	}
	*ff.budget -= len(p)
	return ff.walFile.WriteAt(p, off)
}

func (ff *faultFile) Sync() error {
	if ff.syncErr {
		return errInjected
	}
	return ff.walFile.Sync()
}

func (ff *faultFile) Datasync() error {
	if ff.syncErr {
		return errInjected
	}
	return ff.walFile.Datasync()
}

// requireReserved fails t unless w's next small flush lands inside the
// active segment's reservation, and so syncs with fdatasync. Off Linux the
// reservation is empty and every flush fsyncs; there is nothing to check.
func requireReserved(t *testing.T, w *WAL) {
	t.Helper()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if runtime.GOOS == "linux" && w.segOff+64 > w.segEnd {
		t.Fatalf("written end %d is not inside the reservation (end %d): the fdatasync path is not exercised", w.segOff, w.segEnd)
	}
}

// TestShortWriteSticky: a flush that only lands part of its batch must fail
// that append, poison the log (sticky error), and leave a reopenable file
// whose replay ends at the last fully-flushed record.
func TestShortWriteSticky(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	if err := w.Append(KindCursor, Cursor{Peer: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	requireReserved(t, w)
	budget := 5   // the next flush gets 5 bytes onto disk, then fails
	w.ioMu.Lock() // newFile is read under ioMu by flushLocked
	w.newFile = func(f walFile) walFile { return &faultFile{walFile: f, budget: &budget} }
	w.ioMu.Unlock()
	if err := w.Append(KindCursor, Cursor{Peer: 2, Index: 2}); !errors.Is(err, errInjected) {
		t.Fatalf("short-written append returned %v, want injected failure", err)
	}
	if err := w.Append(KindCursor, Cursor{Peer: 3, Index: 3}); err == nil {
		t.Fatal("append after failed flush succeeded (failure must be sticky)")
	}
	w.Close()
	_, res, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after short write: %v", err)
	}
	if len(res.Records) != 1 || !res.Torn {
		t.Fatalf("replay after short write: %d records (torn=%v), want exactly the pre-fault record, torn", len(res.Records), res.Torn)
	}
	if res.Records[0].Msg.(Cursor) != (Cursor{Peer: 1, Index: 1}) {
		t.Fatalf("surviving record mangled: %+v", res.Records[0])
	}
}

// TestSyncErrorSticky: an fsync failure means the batch may not be durable —
// the append must fail even though the write() succeeded. The flush lands
// inside the reservation, so the sync that fails is its fdatasync.
func TestSyncErrorSticky(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	requireReserved(t, w)
	w.ioMu.Lock()
	w.newFile = func(f walFile) walFile { return &faultFile{walFile: f, syncErr: true} }
	w.ioMu.Unlock()
	if err := w.Append(KindCursor, Cursor{Peer: 1, Index: 1}); !errors.Is(err, errInjected) {
		t.Fatalf("append with failing fsync returned %v, want injected failure", err)
	}
	if err := w.Append(KindCursor, Cursor{Peer: 2, Index: 2}); err == nil {
		t.Fatal("append after fsync failure succeeded (failure must be sticky)")
	}
	w.Close()
}

// TestSnapshotCorruptionFatal: the snapshot write path is atomic, so a
// snapshot failing its CRC means the medium lied — Open must refuse rather
// than restart from an older state as if nothing happened.
func TestSnapshotCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	w.SetSnapshotSource(func() (SnapshotState, error) { return SnapshotState{}, nil })
	if err := w.Append(KindCursor, Cursor{Peer: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	path := filepath.Join(dir, snapName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a snapshot with a bad CRC")
	}
}

// TestSnapshotBodyCorruption: a snapshot body round-trips exactly, its bytes
// depend on the state and not on object or cursor order, every strict prefix
// of it fails to decode, and no bit flip panics the decoder. On disk the CRC
// turns every truncation and every flip into an error.
func TestSnapshotBodyCorruption(t *testing.T) {
	state := SnapshotState{
		AppliedIndex: 77,
		Map:          proto.PartitionMap([]proto.NodeID{0, 1, 2, 3}, 2),
		Objects: []store.Entry{
			{Copy: proto.ObjectCopy{ID: "acct/a", Version: 3, Val: proto.Int64(5)}},
			{Copy: proto.ObjectCopy{ID: "hm/n1", Version: 1, Val: chainNode{Key: 1, Next: "hm/n2"}}, Protected: true, Protector: 9},
		},
		Cursors: map[proto.NodeID]uint64{2: 9, 0: 4, 1: 1 << 40},
	}
	body, err := encodeSnapshot(nil, state)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(body)
	if err != nil || !reflect.DeepEqual(*got, state) {
		t.Fatalf("round trip: err %v\n got:  %+v\n want: %+v", err, got, state)
	}
	reordered := state
	reordered.Objects = []store.Entry{state.Objects[1], state.Objects[0]}
	if again, _ := encodeSnapshot(nil, reordered); !bytes.Equal(again, body) {
		t.Fatal("snapshot bytes depend on object order")
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeSnapshot(body[:cut]); err == nil {
			t.Fatalf("a %d/%d byte prefix decoded", cut, len(body))
		}
	}
	for pos := range body {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(body)
			flipped[pos] ^= 1 << bit
			_, _ = decodeSnapshot(flipped) // may decode to another state; must not panic
		}
	}

	dir := t.TempDir()
	if _, err := writeSnapshot(dir, snapName, state); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readSnapshot(path); err == nil {
			t.Fatalf("readSnapshot accepted a snapshot %s", what)
		}
	}
	for cut := 0; cut < len(file); cut++ {
		check(fmt.Sprintf("cut to %d/%d bytes", cut, len(file)), file[:cut])
	}
	for pos := range file {
		flipped := bytes.Clone(file)
		flipped[pos] ^= 0x10
		check(fmt.Sprintf("flipped at byte %d", pos), flipped)
	}
}
