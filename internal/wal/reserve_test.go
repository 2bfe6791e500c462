package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// This file is the crash battery for the active segment's reservation: the
// unwritten, zero-filled space past the last frame that lets a flush sync
// with fdatasync. A crash leaves it on disk; replay must read it as a clean
// end of log, tell a torn frame in front of it from none, and never let
// stale bytes in it come back behind a later append.

// abandon drops w the way a crash does: nothing staged is flushed, the
// reservation is not cut and nothing is synced. Only the descriptor is
// released.
func abandon(w *WAL) {
	w.ioMu.Lock()
	w.seg.Close()
	w.ioMu.Unlock()
}

// activeSegment returns the active segment's path, written end and reserved
// end.
func activeSegment(w *WAL) (string, int64, int64) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	return filepath.Join(w.opts.Dir, segName(w.segStart)), w.segOff, w.segEnd
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestReservationShape: the live active segment is magic, frames, then the
// reservation; Close cuts it back to exactly its frames.
func TestReservationShape(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the reservation is Linux-only")
	}
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		if err := w.Append(KindCursor, Cursor{Peer: 1, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	path, off, end := activeSegment(w)
	if end != int64(len(segMagic))+segReserve || fileSize(t, path) != end {
		t.Fatalf("live segment: written %d, reserved to %d, size %d; want the reservation past the frames", off, end, fileSize(t, path))
	}
	if got := w.LogBytes(); got != off {
		t.Fatalf("LogBytes = %d, want the written %d", got, off)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != off {
		t.Fatalf("closed segment is %d bytes, want exactly its %d written", got, off)
	}
}

// TestZeroTailAtEveryOffset is TestTruncationAtEveryOffset with the cut
// followed by 4 KiB of zeros, the shape a crash leaves in the reservation.
// Zeros after the cut restore any frame whose cut-off bytes were zeros
// anyway, so the cut is first extended over the zeros of the original;
// records are those wholly below that, and Torn is set iff it is mid-frame.
func TestZeroTailAtEveryOffset(t *testing.T) {
	const n = 5
	src, offsets := buildLog(t, t.TempDir(), n)
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 4096)
	for cut := int64(len(segMagic)); cut <= int64(len(whole)); cut++ {
		eff := cut
		for eff < int64(len(whole)) && whole[eff] == 0 {
			eff++
		}
		dir := t.TempDir()
		img := append(append([]byte(nil), whole[:cut]...), zeros...)
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), img, 0o644); err != nil {
			t.Fatal(err)
		}
		w, res, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		want := intactBelow(offsets, eff)
		if len(res.Records) != want {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(res.Records), want)
		}
		if midFrame := offsets[want] != eff; res.Torn != midFrame {
			t.Fatalf("cut=%d: Torn=%v but mid-frame=%v", cut, res.Torn, midFrame)
		}
		if err := w.Append(KindCursor, Cursor{Peer: 99, Index: 99}); err != nil {
			t.Fatalf("cut=%d: append: %v", cut, err)
		}
		abandon(w)
		w2, res2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(res2.Records) != want+1 || res2.Torn {
			t.Fatalf("cut=%d: after append+crash replayed %d (torn=%v), want %d clean", cut, len(res2.Records), res2.Torn, want+1)
		}
		if last := res2.Records[want]; last.Index != uint64(want+1) || last.Msg.(Cursor).Peer != 99 {
			t.Fatalf("cut=%d: appended record wrong: %+v", cut, last)
		}
		w2.Close()
	}
}

// TestTornFrameThenZeros: the next append after a torn frame lands right
// after the last good record, and survives a second crash and reopen.
func TestTornFrameThenZeros(t *testing.T) {
	const n = 4
	src, offsets := buildLog(t, t.TempDir(), n)
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, filepath.Base(src))
	img := append(append([]byte(nil), whole[:offsets[n-1]+3]...), make([]byte, 64<<10)...)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	w, res := openT(t, dir, Options{})
	if len(res.Records) != n-1 || !res.Torn {
		t.Fatalf("replayed %d records (torn=%v), want %d torn", len(res.Records), res.Torn, n-1)
	}
	next := Cursor{Peer: 77, Index: 7}
	if err := w.Append(KindCursor, next); err != nil {
		t.Fatal(err)
	}
	abandon(w)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := decodeFrame(b[offsets[n-1]:])
	if err != nil || rec.Index != n || rec.Msg.(Cursor) != next {
		t.Fatalf("frame after the last good record = %+v (err %v), want index %d %+v", rec, err, n, next)
	}
	for reopen := 1; reopen <= 2; reopen++ {
		w, res = openT(t, dir, Options{})
		if len(res.Records) != n || res.Torn || res.Records[n-1].Msg.(Cursor) != next {
			t.Fatalf("reopen %d: replayed %d records (torn=%v), want %d clean ending in %+v", reopen, len(res.Records), res.Torn, n, next)
		}
		abandon(w)
	}
}

// TestZerosThenFrameTorn: a crash can land a batch's later page but not its
// first, leaving a zero header with a well-formed frame behind it. That is
// a tear: the frame is not replayed, and the cut drops it for good.
func TestZerosThenFrameTorn(t *testing.T) {
	const n = 3
	src, _ := buildLog(t, t.TempDir(), n)
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	late, err := appendFrame(nil, n+1, KindCursor, Cursor{Peer: 5, Index: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	img := append(append(append(append([]byte(nil), whole...), make([]byte, 4096)...), late...), make([]byte, 4096)...)
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	w, res := openT(t, dir, Options{})
	if len(res.Records) != n || !res.Torn {
		t.Fatalf("replayed %d records (torn=%v), want %d torn", len(res.Records), res.Torn, n)
	}
	if err := w.Append(KindCursor, Cursor{Peer: 6, Index: 6}); err != nil {
		t.Fatal(err)
	}
	abandon(w)
	w, res = openT(t, dir, Options{})
	defer w.Close()
	if len(res.Records) != n+1 || res.Torn || res.Records[n].Msg.(Cursor) != (Cursor{Peer: 6, Index: 6}) {
		t.Fatalf("after append+crash replayed %d records (torn=%v), want %d clean ending in the append", len(res.Records), res.Torn, n+1)
	}
}

// TestStaleFramesNeverResurrect: Open cuts at the first bad frame, so intact
// frames behind it cannot reappear once a same-sized append fills the hole.
func TestStaleFramesNeverResurrect(t *testing.T) {
	const n = 5
	src, offsets := buildLog(t, t.TempDir(), n)
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	img := append([]byte(nil), whole...)
	img[offsets[2]+frameHeaderSize] ^= 0x40 // damage record 3's body; 4 and 5 stay intact
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	w, res := openT(t, dir, Options{})
	if len(res.Records) != 2 || !res.Torn {
		t.Fatalf("replayed %d records (torn=%v), want 2 torn", len(res.Records), res.Torn)
	}
	if err := w.Append(KindCursor, Cursor{Peer: 3, Index: 30}); err != nil { // same size as record 3
		t.Fatal(err)
	}
	abandon(w)
	w, res = openT(t, dir, Options{})
	defer w.Close()
	if len(res.Records) != 3 || res.Torn {
		t.Fatalf("replayed %d records (torn=%v), want exactly 3 clean: stale records 4 and 5 came back", len(res.Records), res.Torn)
	}
}

// noAllocFile refuses to reserve space, as a filesystem without fallocate
// does, and counts the syncs flushes ask for.
type noAllocFile struct {
	walFile
	fsyncs, fdatasyncs *int
}

func (f noAllocFile) Allocate(off, n int64) error { return errInjected }
func (f noAllocFile) Sync() error                 { *f.fsyncs++; return f.walFile.Sync() }
func (f noAllocFile) Datasync() error             { *f.fdatasyncs++; return f.walFile.Datasync() }

// TestAllocateUnsupported: with fallocate failing, the reservation stays
// empty and every flush extends the file and fsyncs — the log still works.
func TestAllocateUnsupported(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	w.SetSnapshotSource(func() (SnapshotState, error) { return SnapshotState{}, nil })
	var fsyncs, fdatasyncs int // touched under ioMu
	w.ioMu.Lock()
	w.newFile = func(f walFile) walFile { return noAllocFile{f, &fsyncs, &fdatasyncs} }
	w.ioMu.Unlock()
	// Rotation creates the next segment through the hook.
	if err := w.Append(KindCursor, Cursor{Peer: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	path, off, end := activeSegment(w)
	if end != off || fileSize(t, path) != off {
		t.Fatalf("segment created without fallocate: written %d, reserved to %d, size %d; want no reservation", off, end, fileSize(t, path))
	}
	w.ioMu.Lock()
	fsyncs, fdatasyncs = 0, 0
	w.ioMu.Unlock()
	const appends = 5
	for i := 1; i <= appends; i++ {
		if err := w.Append(KindCursor, Cursor{Peer: 1, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.ioMu.Lock()
	got := [2]int{fsyncs, fdatasyncs}
	w.ioMu.Unlock()
	if got != [2]int{appends, 0} {
		t.Fatalf("flushes synced with %d fsyncs and %d fdatasyncs, want %d fsyncs", got[0], got[1], appends)
	}
	if _, off, _ := activeSegment(w); fileSize(t, path) != off {
		t.Fatalf("segment size %d, want its written %d", fileSize(t, path), off)
	}
	abandon(w)
	w, res := openT(t, dir, Options{})
	defer w.Close()
	if len(res.Records) != appends || res.Torn {
		t.Fatalf("replayed %d records (torn=%v), want %d clean", len(res.Records), res.Torn, appends)
	}
}

// TestTailStopsAtWrittenEnd: Tail on a live log serves exactly the acked
// records, paginated as ever, and never reads into the reservation — not
// even a whole well-formed frame left there.
func TestTailStopsAtWrittenEnd(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	defer w.Close()
	for i := 1; i <= 10; i++ {
		if err := w.Append(KindCursor, Cursor{Peer: 0, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	path, off, end := activeSegment(w)
	if runtime.GOOS == "linux" && fileSize(t, path) != end {
		t.Fatalf("live segment size %d, want the reserved %d", fileSize(t, path), end)
	}
	stale, err := appendFrame(nil, 11, KindCursor, Cursor{Peer: 9, Index: 9})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(stale, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	type page struct {
		idx  []uint64
		more bool
	}
	var pages []page
	for after := uint64(0); ; {
		recs, more, compacted, err := w.Tail(after, 3)
		if err != nil || compacted {
			t.Fatalf("Tail(%d): err=%v compacted=%v", after, err, compacted)
		}
		var p page
		for _, r := range recs {
			p.idx = append(p.idx, r.Index)
			after = r.Index
		}
		p.more = more
		pages = append(pages, p)
		if !more {
			break
		}
	}
	want := []page{{[]uint64{1, 2, 3}, true}, {[]uint64{4, 5, 6}, true}, {[]uint64{7, 8, 9}, true}, {[]uint64{10}, false}}
	if !reflect.DeepEqual(pages, want) {
		t.Fatalf("paged tail = %+v, want %+v", pages, want)
	}
	// The next append overwrites the stale frame; Tail serves the real one.
	if err := w.Append(KindCursor, Cursor{Peer: 0, Index: 11}); err != nil {
		t.Fatal(err)
	}
	recs, more, _, err := w.Tail(10, 5)
	if err != nil || more || len(recs) != 1 || recs[0].Msg.(Cursor) != (Cursor{Peer: 0, Index: 11}) {
		t.Fatalf("Tail(10) = %+v more=%v err=%v, want only the acked record 11", recs, more, err)
	}
}

// TestSealedSegmentKeepsExactSize: rotation cuts the sealed segment to its
// frames, so it reopens as before, and bytes past them — zeros included —
// are media damage.
func TestSealedSegmentKeepsExactSize(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	// A failing snapshot source still rotates, and leaves the sealed segment
	// on disk.
	w.SetSnapshotSource(func() (SnapshotState, error) { return SnapshotState{}, errInjected })
	for i := 1; i <= 3; i++ {
		if err := w.Append(KindCursor, Cursor{Peer: 1, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sealedPath, off, _ := activeSegment(w)
	if err := w.Snapshot(); !errors.Is(err, errInjected) {
		t.Fatalf("Snapshot = %v, want the source's failure", err)
	}
	if got := fileSize(t, sealedPath); got != off {
		t.Fatalf("sealed segment is %d bytes, want exactly its %d written", got, off)
	}
	if err := w.Append(KindCursor, Cursor{Peer: 1, Index: 4}); err != nil {
		t.Fatal(err)
	}
	abandon(w)
	w, res := openT(t, dir, Options{})
	if len(res.Records) != 4 || res.Torn {
		t.Fatalf("replayed %d records (torn=%v), want 4 clean across both segments", len(res.Records), res.Torn)
	}
	w.Close()
	f, err := os.OpenFile(sealedPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a sealed segment with bytes past its last frame")
	}
}

// TestFsyncErrorOnGrowSticky: a flush that crosses the reserved end syncs
// with fsync; its failure poisons the log like an fdatasync failure.
func TestFsyncErrorOnGrowSticky(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	w.ioMu.Lock()
	w.segEnd = w.segOff // as if the reservation were used up
	w.newFile = func(f walFile) walFile { return failSync{f} }
	w.ioMu.Unlock()
	if err := w.Append(KindCursor, Cursor{Peer: 1, Index: 1}); !errors.Is(err, errInjected) {
		t.Fatalf("append whose fsync failed returned %v, want injected failure", err)
	}
	if err := w.Append(KindCursor, Cursor{Peer: 2, Index: 2}); err == nil {
		t.Fatal("append after fsync failure succeeded (failure must be sticky)")
	}
	w.Close()
}

// failSync fails fsync only; fdatasync passes through.
type failSync struct{ walFile }

func (failSync) Sync() error { return errInjected }
