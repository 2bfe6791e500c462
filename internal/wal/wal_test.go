package wal

import (
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"qrdtm/internal/proto"
	"qrdtm/internal/store"
)

// testRecords is a representative mix of every record kind.
func testRecords() []struct {
	kind Kind
	msg  any
} {
	return []struct {
		kind Kind
		msg  any
	}{
		{KindLoad, proto.LoadReq{Objects: []proto.ObjectCopy{{ID: "acct/a", Version: 1, Val: proto.Int64(100)}, {ID: "acct/b", Version: 1, Val: proto.Int64(100)}}}},
		{KindPrepare, proto.PrepareReq{Txn: 7, Reads: []proto.DataItem{{ID: "acct/a", Version: 1, OwnerDepth: 0, OwnerChk: proto.NoChk}}, Writes: []proto.ObjectCopy{{ID: "acct/b", Version: 1, Val: proto.Int64(90)}}}},
		{KindDecide, proto.DecideReq{Txn: 7, Commit: true, Writes: []proto.ObjectCopy{{ID: "acct/b", Version: 2, Val: proto.Int64(90)}}}},
		{KindInstall, proto.InstallReq{Copies: []proto.ObjectCopy{{ID: "acct/c", Version: 3, Val: proto.Int64(5)}}}},
		{KindMap, proto.MapUpdateReq{Map: proto.PartitionMap([]proto.NodeID{0, 1, 2, 3}, 2)}},
		{KindCursor, Cursor{Peer: 3, Index: 42}},
	}
}

func openT(t *testing.T, dir string, opts Options) (*WAL, *Restore) {
	t.Helper()
	opts.Dir = dir
	w, res, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return w, res
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	w, res := openT(t, dir, Options{})
	if res.Snapshot != nil || len(res.Records) != 0 || res.Torn {
		t.Fatalf("fresh dir restored %+v", res)
	}
	recs := testRecords()
	for _, r := range recs {
		if err := w.Append(r.kind, r.msg); err != nil {
			t.Fatalf("Append(%v): %v", r.kind, err)
		}
	}
	if got := w.LastIndex(); got != uint64(len(recs)) {
		t.Fatalf("LastIndex = %d, want %d", got, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, res2 := openT(t, dir, Options{})
	defer w2.Close()
	if res2.Torn {
		t.Fatal("clean log reported torn")
	}
	if len(res2.Records) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(res2.Records), len(recs))
	}
	for i, rec := range res2.Records {
		if rec.Index != uint64(i+1) {
			t.Fatalf("record %d has index %d", i, rec.Index)
		}
		if rec.Kind != recs[i].kind {
			t.Fatalf("record %d kind = %v, want %v", i, rec.Kind, recs[i].kind)
		}
	}
	// Payload fidelity, spot-checked across both payload codecs.
	dec := res2.Records[2].Msg.(proto.DecideReq)
	if dec.Txn != 7 || !dec.Commit || len(dec.Writes) != 1 || dec.Writes[0].Version != 2 {
		t.Fatalf("decide payload mangled: %+v", dec)
	}
	mp := res2.Records[4].Msg.(proto.MapUpdateReq)
	if mp.Map.Epoch != 1 || len(mp.Map.Shards) != 2 {
		t.Fatalf("map payload mangled: %+v", mp.Map)
	}
	if cur := res2.Records[5].Msg.(Cursor); cur != (Cursor{Peer: 3, Index: 42}) {
		t.Fatalf("cursor payload mangled: %+v", cur)
	}
	// The reopened log continues the index sequence.
	if err := w2.Append(KindCursor, Cursor{Peer: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	if got := w2.LastIndex(); got != uint64(len(recs)+1) {
		t.Fatalf("continued LastIndex = %d, want %d", got, len(recs)+1)
	}
}

// TestGroupCommit proves the amortization claim: many concurrent appends
// share far fewer fsyncs, and every record still lands durably in index
// order.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	const workers, each = 16, 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				errs <- w.Append(KindCursor, Cursor{Peer: proto.NodeID(g), Index: uint64(i)})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent append: %v", err)
		}
	}
	total := int64(workers * each)
	if f := w.Fsyncs(); f >= total {
		t.Fatalf("no batching: %d fsyncs for %d appends", f, total)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, res := openT(t, dir, Options{})
	defer w2.Close()
	if int64(len(res.Records)) != total {
		t.Fatalf("replayed %d records, want %d", len(res.Records), total)
	}
	for i, rec := range res.Records {
		if rec.Index != uint64(i+1) {
			t.Fatalf("record %d has index %d (order lost)", i, rec.Index)
		}
	}
}

// gatedFile parks a flush inside WriteAt until release is closed, holding
// ioMu the way a slow write+fsync would.
type gatedFile struct {
	walFile
	entered, release chan struct{}
}

func (g gatedFile) WriteAt(p []byte, off int64) (int, error) {
	close(g.entered)
	<-g.release
	return g.walFile.WriteAt(p, off)
}

// TestNaturalBatching pins leader-run group commit without a clock: the
// append that opens a batch flushes it, and everything staged while that
// write+fsync is in flight forms exactly one next batch.
func TestNaturalBatching(t *testing.T) {
	t.Run("staged-during-flush", func(t *testing.T) {
		w, _ := openT(t, t.TempDir(), Options{})
		defer w.Close()
		entered, release := make(chan struct{}), make(chan struct{})
		gated := false // touched only under ioMu, by flushLocked
		w.ioMu.Lock()
		w.newFile = func(f walFile) walFile {
			if gated {
				return f
			}
			gated = true
			return gatedFile{f, entered, release}
		}
		w.ioMu.Unlock()

		const n = 11 // A, then B…K
		errs := make(chan error, n)
		appendOne := func(i int) { errs <- w.Append(KindCursor, Cursor{Peer: 1, Index: uint64(i)}) }
		go appendOne(0)
		<-entered // A leads batch 1 and is parked in WriteAt, holding ioMu
		for i := 1; i < n; i++ {
			go appendOne(i)
		}
		for w.LastIndex() < n { // B leads batch 2 and queues on ioMu; C…K join it
			runtime.Gosched()
		}
		close(release)
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if f := w.Fsyncs(); f != 2 {
			t.Fatalf("Fsyncs = %d, want 2 (A alone, then B…K together)", f)
		}
	})
	t.Run("fsync-interval-ignored", func(t *testing.T) {
		w, _ := openT(t, t.TempDir(), Options{FsyncInterval: time.Hour})
		defer w.Close()
		done := make(chan error, 1)
		go func() { done <- w.Append(KindCursor, Cursor{Peer: 1, Index: 1}) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a lone append waited on the deprecated FsyncInterval")
		}
		if f := w.Fsyncs(); f != 1 {
			t.Fatalf("Fsyncs = %d, want 1", f)
		}
	})
}

// TestAppendSnapshotClose races appenders against background snapshots and
// Close: every append returns nil or ErrClosed and none hangs, and the
// reopened log holds exactly the acknowledged records, contiguously, across
// snapshot and tail.
func TestAppendSnapshotClose(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{SnapshotEvery: 4})
	w.SetSnapshotSource(func() (SnapshotState, error) { return SnapshotState{}, nil })
	const appenders, closeAfter = 8, 40
	var (
		mu    sync.Mutex
		acked = map[Cursor]bool{}
		half  = make(chan struct{})
		wg    sync.WaitGroup
	)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				c := Cursor{Peer: proto.NodeID(g), Index: i}
				err := w.Append(KindCursor, c)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("append %+v: %v", c, err)
					return
				}
				mu.Lock()
				acked[c] = true
				if len(acked) == closeAfter {
					close(half)
				}
				mu.Unlock()
			}
		}(g)
	}
	<-half
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("an append hung across Close")
	}
	if err := w.SnapshotErr(); err != nil {
		t.Fatalf("background snapshot: %v", err)
	}
	if err := w.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}

	w2, res := openT(t, dir, Options{})
	defer w2.Close()
	if res.Snapshot == nil {
		t.Fatal("no automatic snapshot survived")
	}
	next := res.Snapshot.AppliedIndex + 1
	for _, rec := range res.Records {
		if rec.Index != next {
			t.Fatalf("tail record index %d, want %d", rec.Index, next)
		}
		if !acked[rec.Msg.(Cursor)] {
			t.Fatalf("record %+v was never acknowledged", rec)
		}
		next++
	}
	if next-1 != uint64(len(acked)) {
		t.Fatalf("snapshot(%d) + tail(%d) covers %d records, %d were acknowledged",
			res.Snapshot.AppliedIndex, len(res.Records), next-1, len(acked))
	}
}

// snapshotFixture wires a store as the WAL's snapshot source.
func snapshotFixture(w *WAL, st *store.Store) {
	w.SetSnapshotSource(func() (SnapshotState, error) {
		return SnapshotState{Objects: st.State(), Cursors: map[proto.NodeID]uint64{2: 9}}, nil
	})
}

func TestSnapshotCompactRestore(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	st := store.New()
	snapshotFixture(w, st)

	apply := func(kind Kind, msg any) {
		t.Helper()
		if !Apply(st, Record{Kind: kind, Msg: msg}) {
			t.Fatalf("Apply rejected %v", kind)
		}
		if err := w.Append(kind, msg); err != nil {
			t.Fatal(err)
		}
	}
	apply(KindLoad, proto.LoadReq{Objects: []proto.ObjectCopy{{ID: "x", Version: 1, Val: proto.Int64(1)}}})
	for v := proto.Version(2); v <= 5; v++ {
		apply(KindDecide, proto.DecideReq{Txn: proto.TxnID(v), Commit: true, Writes: []proto.ObjectCopy{{ID: "x", Version: v, Val: proto.Int64(int64(v))}}})
	}
	if err := w.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := w.Floor(); got != 5 {
		t.Fatalf("Floor = %d, want 5", got)
	}
	// Sealed segments are gone; only the fresh one remains.
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments after compaction: %v (err %v)", segs, err)
	}
	// Post-snapshot tail.
	apply(KindDecide, proto.DecideReq{Txn: 9, Commit: true, Writes: []proto.ObjectCopy{{ID: "x", Version: 6, Val: proto.Int64(6)}}})
	apply(KindPrepare, proto.PrepareReq{Txn: 11, Writes: []proto.ObjectCopy{{ID: "x", Version: 6}}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, res := openT(t, dir, Options{})
	defer w2.Close()
	if res.Snapshot == nil {
		t.Fatal("no snapshot restored")
	}
	if res.Snapshot.AppliedIndex != 5 {
		t.Fatalf("snapshot applied index = %d, want 5", res.Snapshot.AppliedIndex)
	}
	if res.Snapshot.Cursors[2] != 9 {
		t.Fatalf("snapshot cursors mangled: %v", res.Snapshot.Cursors)
	}
	if len(res.Records) != 2 || res.Records[0].Index != 6 || res.Records[1].Index != 7 {
		t.Fatalf("tail records = %+v, want indices 6,7", res.Records)
	}
	// Restore path: snapshot state + tail replay reproduces the live store.
	st2 := store.New()
	st2.RestoreState(res.Snapshot.Objects)
	for _, rec := range res.Records {
		Apply(st2, rec)
	}
	if got := st2.Version("x"); got != 6 {
		t.Fatalf("restored version = %d, want 6", got)
	}
	if !st2.Contention("x").Protected {
		t.Fatal("replayed prepare did not re-protect x")
	}
}

func TestAutomaticSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{SnapshotEvery: 8})
	snapshotFixture(w, store.New())
	for i := 0; i < 20; i++ {
		if err := w.Append(KindCursor, Cursor{Peer: 1, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot runs in the background; wait for the floor to move.
	deadline := time.Now().Add(5 * time.Second)
	for w.Floor() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic snapshot after 20 appends (SnapshotEvery=8); snapErr=%v", w.SnapshotErr())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, res := openT(t, dir, Options{})
	defer w2.Close()
	if res.Snapshot == nil {
		t.Fatal("automatic snapshot not restored")
	}
	if got := res.Snapshot.AppliedIndex + uint64(len(res.Records)); got != 20 {
		t.Fatalf("snapshot(%d) + tail(%d) covers %d records, want 20", res.Snapshot.AppliedIndex, len(res.Records), got)
	}
}

func TestTailPaginationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	defer w.Close()
	snapshotFixture(w, store.New())
	for i := 1; i <= 10; i++ {
		if err := w.Append(KindCursor, Cursor{Peer: 0, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Page through the whole log two records at a time.
	var got []uint64
	after := uint64(0)
	for {
		recs, more, compacted, err := w.Tail(after, 2)
		if err != nil || compacted {
			t.Fatalf("Tail(%d): err=%v compacted=%v", after, err, compacted)
		}
		for _, r := range recs {
			got = append(got, r.Index)
			after = r.Index
		}
		if !more {
			break
		}
	}
	want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged tail = %v, want %v", got, want)
	}
	// Mid-log cursor.
	recs, _, _, err := w.Tail(7, 100)
	if err != nil || len(recs) != 3 || recs[0].Index != 8 {
		t.Fatalf("Tail(7) = %v records (err %v), want 8..10", len(recs), err)
	}
	// Compaction: a snapshot at index 10 makes any cursor below 10 stale.
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, _, compacted, _ := w.Tail(3, 100); !compacted {
		t.Fatal("Tail(3) after compaction to floor 10 did not report compacted")
	}
	if recs, _, compacted, err := w.Tail(10, 100); err != nil || compacted || len(recs) != 0 {
		t.Fatalf("Tail(10) at floor: recs=%d compacted=%v err=%v", len(recs), compacted, err)
	}
}

// TestApplyIdempotent pins the property the snapshot/tail overlap depends
// on: re-applying an already-applied record leaves the store unchanged.
func TestApplyIdempotent(t *testing.T) {
	st := store.New()
	recs := []Record{
		{Index: 1, Kind: KindLoad, Msg: proto.LoadReq{Objects: []proto.ObjectCopy{{ID: "a", Version: 1, Val: proto.Int64(10)}}}},
		{Index: 2, Kind: KindPrepare, Msg: proto.PrepareReq{Txn: 5, Writes: []proto.ObjectCopy{{ID: "a", Version: 1}}}},
		{Index: 3, Kind: KindDecide, Msg: proto.DecideReq{Txn: 5, Commit: true, Writes: []proto.ObjectCopy{{ID: "a", Version: 2, Val: proto.Int64(20)}}}},
		{Index: 4, Kind: KindInstall, Msg: proto.InstallReq{Copies: []proto.ObjectCopy{{ID: "b", Version: 7, Val: proto.Int64(1)}}}},
	}
	for _, r := range recs {
		Apply(st, r)
	}
	before := sortedState(st)
	for _, r := range recs { // replay everything a second time
		Apply(st, r)
	}
	if after := sortedState(st); !reflect.DeepEqual(before, after) {
		t.Fatalf("double replay diverged:\nbefore %+v\nafter  %+v", before, after)
	}
	if st.Version("a") != 2 || st.Contention("a").Protected {
		t.Fatalf("final state wrong: v=%d protected=%v", st.Version("a"), st.Contention("a").Protected)
	}
}

func sortedState(st *store.Store) []store.Entry {
	es := st.State()
	sort.Slice(es, func(i, j int) bool { return es[i].Copy.ID < es[j].Copy.ID })
	return es
}
