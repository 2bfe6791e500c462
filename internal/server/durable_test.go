package server

import (
	"testing"

	"qrdtm/internal/proto"
	"qrdtm/internal/wal"
)

// Regression tests for restart semantics: prepared-but-undecided entries
// survive a crash as protected objects (the replica acked the prepare — a
// durable promise), the decide arriving later via catch-up resolves them,
// and only after every peer has been consulted are leftovers dropped. This
// is the durable refinement of Store.DropLocks, which in-memory recovery
// applies wholesale.

// durableReplica opens a WAL in dir and attaches it to a fresh replica.
func durableReplica(t *testing.T, dir string) *Replica {
	t.Helper()
	w, res, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	r := New(0).WithWAL(w)
	r.Restore(res)
	return r
}

// crashRestart closes the replica's WAL and rebuilds a replica from the
// same directory, as a process restart would.
func crashRestart(t *testing.T, r *Replica, dir string) *Replica {
	t.Helper()
	if err := r.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	return durableReplica(t, dir)
}

// prepareUndecided loads two objects and leaves txn 9 prepared on "a".
func prepareUndecided(t *testing.T, r *Replica) {
	t.Helper()
	r.Handle(1, proto.LoadReq{Objects: []proto.ObjectCopy{
		{ID: "a", Version: 2, Val: proto.Int64(10)},
		{ID: "b", Version: 1, Val: proto.Int64(20)},
	}})
	prep := r.Handle(1, proto.PrepareReq{
		Txn:    9,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 3, Val: proto.Int64(99)}},
	}).(proto.PrepareRep)
	if !prep.OK {
		t.Fatal("fixture prepare should pass")
	}
}

func TestRestorePreservesPreparedProtection(t *testing.T) {
	dir := t.TempDir()
	r := durableReplica(t, dir)
	prepareUndecided(t, r)
	r2 := crashRestart(t, r, dir)

	if got := r2.RestoredProtections(); got != 1 {
		t.Fatalf("RestoredProtections = %d, want 1 (txn 9)", got)
	}
	// The acked prepare still guards "a": a competing prepare must be denied
	// exactly as it would have been before the crash.
	prep := r2.Handle(2, proto.PrepareReq{
		Txn:    11,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 3, Val: proto.Int64(1)}},
	}).(proto.PrepareRep)
	if prep.OK {
		t.Fatal("restart dropped the protection of a prepared-but-undecided txn")
	}
	// Unrelated objects are free.
	prep = r2.Handle(2, proto.PrepareReq{
		Txn:    12,
		Writes: []proto.ObjectCopy{{ID: "b", Version: 2, Val: proto.Int64(5)}},
	}).(proto.PrepareRep)
	if !prep.OK {
		t.Fatal("restart blocked an unrelated prepare")
	}
}

func TestCatchUpCommitResolvesRestoredProtection(t *testing.T) {
	dir := t.TempDir()
	r := durableReplica(t, dir)
	prepareUndecided(t, r)
	r2 := crashRestart(t, r, dir)

	// The decide reaches us through catch-up, not the original coordinator.
	applied, err := r2.ApplyLogRecord(proto.LogRecord{
		Kind: proto.LogKindDecide, Txn: 9, Commit: true,
		Copies: []proto.ObjectCopy{{ID: "a", Version: 3, Val: proto.Int64(99)}},
	})
	if err != nil || !applied {
		t.Fatalf("ApplyLogRecord = %v, %v", applied, err)
	}
	if c, ok := r2.Store().Get("a"); !ok || c.Version != 3 || c.Val.(proto.Int64) != 99 {
		t.Fatalf("commit not installed: %+v", c)
	}
	prep := r2.Handle(2, proto.PrepareReq{
		Txn:    11,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 4, Val: proto.Int64(1)}},
	}).(proto.PrepareRep)
	if !prep.OK {
		t.Fatal("protection not released by the caught-up commit")
	}
	// The decision was re-logged locally: a second crash must not resurrect
	// the protection or lose the write.
	r3 := crashRestart(t, r2, dir)
	if got := r3.RestoredProtections(); got != 1 { // txn 11's new protection, not txn 9's
		t.Fatalf("RestoredProtections after second crash = %d, want 1", got)
	}
	if c, _ := r3.Store().Get("a"); c.Version != 3 {
		t.Fatalf("caught-up commit lost across second crash: %+v", c)
	}
}

func TestCatchUpAbortResolvesRestoredProtection(t *testing.T) {
	dir := t.TempDir()
	r := durableReplica(t, dir)
	prepareUndecided(t, r)
	r2 := crashRestart(t, r, dir)

	if _, err := r2.ApplyLogRecord(proto.LogRecord{
		Kind: proto.LogKindDecide, Txn: 9, Commit: false,
		Copies: []proto.ObjectCopy{{ID: "a", Version: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	if c, _ := r2.Store().Get("a"); c.Version != 2 || c.Val.(proto.Int64) != 10 {
		t.Fatalf("abort must leave the pre-prepare copy: %+v", c)
	}
	prep := r2.Handle(2, proto.PrepareReq{
		Txn:    11,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 3, Val: proto.Int64(1)}},
	}).(proto.PrepareRep)
	if !prep.OK {
		t.Fatal("protection not released by the caught-up abort")
	}
}

func TestResolveDropsOnlyRestoredProtections(t *testing.T) {
	dir := t.TempDir()
	r := durableReplica(t, dir)
	prepareUndecided(t, r)
	r2 := crashRestart(t, r, dir)

	// A fresh post-restart prepare on "b" must survive the resolve — only
	// pre-crash transactions are dropped.
	prep := r2.Handle(2, proto.PrepareReq{
		Txn:    20,
		Writes: []proto.ObjectCopy{{ID: "b", Version: 2, Val: proto.Int64(5)}},
	}).(proto.PrepareRep)
	if !prep.OK {
		t.Fatal("fixture prepare should pass")
	}
	if got := r2.ResolveRestoredProtections(); got != 1 {
		t.Fatalf("ResolveRestoredProtections = %d, want 1 (txn 9's object)", got)
	}
	// Dropped: a new prepare on "a" succeeds now.
	prep = r2.Handle(2, proto.PrepareReq{
		Txn:    21,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 3, Val: proto.Int64(7)}},
	}).(proto.PrepareRep)
	if !prep.OK {
		t.Fatal("never-decided protection not dropped after resolve")
	}
	// Kept: txn 20's post-restart protection on "b" still guards it.
	prep = r2.Handle(3, proto.PrepareReq{
		Txn:    22,
		Writes: []proto.ObjectCopy{{ID: "b", Version: 2, Val: proto.Int64(6)}},
	}).(proto.PrepareRep)
	if prep.OK {
		t.Fatal("resolve dropped a live post-restart protection")
	}
	// Resolve is one-shot: calling again drops nothing further.
	if got := r2.ResolveRestoredProtections(); got != 0 {
		t.Fatalf("second resolve dropped %d, want 0", got)
	}
}

func TestLogTailServing(t *testing.T) {
	dir := t.TempDir()
	r := durableReplica(t, dir)
	// Log: load(1), prepare(2), decide(3), map(·), install — interleaving
	// served kinds with local-only ones (prepare, cursor).
	r.Handle(1, proto.LoadReq{Objects: []proto.ObjectCopy{
		{ID: "a", Version: 1, Val: proto.Int64(10)},
	}})
	r.Handle(1, proto.PrepareReq{Txn: 9, Writes: []proto.ObjectCopy{{ID: "a", Version: 2, Val: proto.Int64(11)}}})
	r.Handle(1, proto.DecideReq{Txn: 9, Commit: true, Writes: []proto.ObjectCopy{{ID: "a", Version: 2, Val: proto.Int64(11)}}})
	if err := r.SetCursor(7, 5); err != nil {
		t.Fatal(err)
	}
	r.Handle(1, proto.InstallReq{Copies: []proto.ObjectCopy{{ID: "z", Version: 4, Val: proto.Int64(1)}}})

	rep := r.Handle(1, proto.LogTailReq{After: 0}).(proto.LogTailRep)
	if !rep.OK || rep.Compacted || rep.More {
		t.Fatalf("rep = %+v", rep)
	}
	// Served: load (as install), decide, install. Filtered: prepare, cursor.
	if len(rep.Records) != 3 {
		t.Fatalf("served %d records, want 3: %+v", len(rep.Records), rep.Records)
	}
	if rep.Records[0].Kind != proto.LogKindInstall || rep.Records[0].Index != 1 {
		t.Fatalf("record 0 = %+v, want the load as an install at index 1", rep.Records[0])
	}
	if rep.Records[1].Kind != proto.LogKindDecide || rep.Records[1].Txn != 9 || !rep.Records[1].Commit {
		t.Fatalf("record 1 = %+v", rep.Records[1])
	}
	if rep.Records[2].Kind != proto.LogKindInstall || rep.Records[2].Copies[0].ID != "z" {
		t.Fatalf("record 2 = %+v", rep.Records[2])
	}
	// Next covers the whole raw log (5 records), not just the served ones —
	// otherwise the requester's cursor would stall on filtered kinds.
	if rep.Next != 5 {
		t.Fatalf("Next = %d, want 5", rep.Next)
	}

	// Pagination: Max=2 raw records per reply, cursor advancing via Next.
	var got []proto.LogRecord
	after := uint64(0)
	pages := 0
	for {
		rep := r.Handle(1, proto.LogTailReq{After: after, Max: 2}).(proto.LogTailRep)
		if !rep.OK {
			t.Fatalf("page %d: %+v", pages, rep)
		}
		got = append(got, rep.Records...)
		if rep.Next > after {
			after = rep.Next
		}
		pages++
		if !rep.More {
			break
		}
	}
	if len(got) != 3 || pages < 3 {
		t.Fatalf("pagination: %d records over %d pages", len(got), pages)
	}

	// Mid-log cursor: everything after the decide (raw index 3).
	rep = r.Handle(1, proto.LogTailReq{After: 3}).(proto.LogTailRep)
	if len(rep.Records) != 1 || rep.Records[0].Copies[0].ID != "z" {
		t.Fatalf("tail after 3 = %+v", rep.Records)
	}
}

func TestLogTailNonDurableAndCompacted(t *testing.T) {
	// A replica without a WAL has no log to serve.
	rep := New(0).Handle(1, proto.LogTailReq{After: 0}).(proto.LogTailRep)
	if rep.OK {
		t.Fatal("in-memory replica claimed to serve a log tail")
	}

	// A compacted log tells the requester to fall back to full resync.
	dir := t.TempDir()
	r := durableReplica(t, dir)
	r.Handle(1, proto.LoadReq{Objects: []proto.ObjectCopy{{ID: "a", Version: 1, Val: proto.Int64(10)}}})
	r.Handle(1, proto.DecideReq{Txn: 9, Commit: true, Writes: []proto.ObjectCopy{{ID: "a", Version: 2, Val: proto.Int64(11)}}})
	if err := r.WAL().Snapshot(); err != nil {
		t.Fatal(err)
	}
	rep = r.Handle(1, proto.LogTailReq{After: 0}).(proto.LogTailRep)
	if !rep.OK || !rep.Compacted {
		t.Fatalf("tail below the floor should report Compacted: %+v", rep)
	}
}

func TestPrepareDeniedWhenWALFails(t *testing.T) {
	dir := t.TempDir()
	r := durableReplica(t, dir)
	r.Handle(1, proto.LoadReq{Objects: []proto.ObjectCopy{{ID: "a", Version: 1, Val: proto.Int64(10)}}})
	// Closing the WAL makes every append fail: the replica must refuse to
	// ack prepares it cannot make durable, and must not leak the lock.
	if err := r.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	prep := r.Handle(1, proto.PrepareReq{
		Txn: 9, Writes: []proto.ObjectCopy{{ID: "a", Version: 2, Val: proto.Int64(99)}},
	}).(proto.PrepareRep)
	if prep.OK {
		t.Fatal("prepare acked without a durable log record")
	}
	if r.Store().AnyProtected() {
		t.Fatal("failed durable prepare leaked a protection")
	}
}
