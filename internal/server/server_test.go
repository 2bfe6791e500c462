package server

import (
	"testing"

	"qrdtm/internal/proto"
)

func newLoaded(t *testing.T) *Replica {
	t.Helper()
	r := New(0)
	r.Handle(1, proto.LoadReq{Objects: []proto.ObjectCopy{
		{ID: "a", Version: 2, Val: proto.Int64(10)},
		{ID: "b", Version: 1, Val: proto.Int64(20)},
	}})
	return r
}

func TestHandleReadFetches(t *testing.T) {
	r := newLoaded(t)
	rep := r.Handle(1, proto.ReadReq{Txn: 5, Obj: "a"}).(proto.ReadRep)
	if !rep.OK || rep.Copy.Version != 2 || rep.Copy.Val.(proto.Int64) != 10 {
		t.Fatalf("rep = %+v", rep)
	}
	if m := r.Metrics().Snapshot(); m.Reads != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHandleReadValidates(t *testing.T) {
	r := newLoaded(t)
	// Stale footprint: "a" was read at version 1 but the replica has 2.
	rep := r.Handle(1, proto.ReadReq{
		Txn: 5, Obj: "b",
		DataSet: []proto.DataItem{{ID: "a", Version: 1, OwnerDepth: 1, OwnerChk: 2}},
	}).(proto.ReadRep)
	if rep.OK {
		t.Fatal("validation should deny the read")
	}
	if rep.AbortDepth != 1 || rep.AbortChk != 2 {
		t.Fatalf("abort targets = %d/%d", rep.AbortDepth, rep.AbortChk)
	}
	if m := r.Metrics().Snapshot(); m.ReadAborts != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHandleReadValidationOnlyProbe(t *testing.T) {
	r := newLoaded(t)
	rep := r.Handle(1, proto.ReadReq{
		Txn: 5, Obj: "",
		DataSet: []proto.DataItem{{ID: "a", Version: 2, OwnerChk: proto.NoChk}},
	}).(proto.ReadRep)
	if !rep.OK {
		t.Fatalf("probe should pass: %+v", rep)
	}
	if rep.Copy.Val != nil {
		t.Fatal("probe must not fetch")
	}
	// The probe must not have created a record for the empty id.
	if _, ok := r.Store().Get(""); ok {
		t.Fatal("probe created a phantom object")
	}
}

func TestHandleCommitFlow(t *testing.T) {
	r := newLoaded(t)
	prep := r.Handle(1, proto.PrepareReq{
		Txn:    9,
		Reads:  []proto.DataItem{{ID: "b", Version: 1, OwnerChk: proto.NoChk}},
		Writes: []proto.ObjectCopy{{ID: "a", Version: 2, Val: proto.Int64(99)}},
	}).(proto.PrepareRep)
	if !prep.OK {
		t.Fatal("prepare should pass")
	}
	// A competing prepare is rejected while the lock is held.
	prep2 := r.Handle(2, proto.PrepareReq{
		Txn:    10,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 2, Val: proto.Int64(1)}},
	}).(proto.PrepareRep)
	if prep2.OK {
		t.Fatal("conflicting prepare should be rejected")
	}
	r.Handle(1, proto.DecideReq{
		Txn: 9, Commit: true,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 3, Val: proto.Int64(99)}},
	})
	got, _ := r.Store().Get("a")
	if got.Version != 3 || got.Val.(proto.Int64) != 99 {
		t.Fatalf("after commit: %+v", got)
	}
	m := r.Metrics().Snapshot()
	if m.Prepares != 2 || m.PrepareRejects != 1 || m.CommitDecisions != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHandleAbortReleasesLocks(t *testing.T) {
	r := newLoaded(t)
	r.Handle(1, proto.PrepareReq{
		Txn:    9,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 2, Val: proto.Int64(99)}},
	})
	r.Handle(1, proto.DecideReq{
		Txn: 9, Commit: false,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 2}},
	})
	prep := r.Handle(2, proto.PrepareReq{
		Txn:    10,
		Writes: []proto.ObjectCopy{{ID: "a", Version: 2, Val: proto.Int64(1)}},
	}).(proto.PrepareRep)
	if !prep.OK {
		t.Fatal("lock must be free after abort decision")
	}
	if m := r.Metrics().Snapshot(); m.AbortDecisions != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if got, _ := r.Store().Get("a"); got.Val.(proto.Int64) != 10 {
		t.Fatalf("aborted write leaked: %+v", got)
	}
}

func TestHandleDump(t *testing.T) {
	r := newLoaded(t)
	rep := r.Handle(1, proto.DumpReq{Obj: "b"}).(proto.DumpRep)
	if !rep.OK || rep.Copy.Val.(proto.Int64) != 20 {
		t.Fatalf("dump = %+v", rep)
	}
	rep = r.Handle(1, proto.DumpReq{Obj: "zzz"}).(proto.DumpRep)
	if rep.OK {
		t.Fatal("dump of unknown object should report absent")
	}
}

func TestHandleUnknownMessagePanics(t *testing.T) {
	r := New(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown message type")
		}
	}()
	r.Handle(1, struct{ X int }{1})
}

func TestPRRecordingDepthGate(t *testing.T) {
	r := newLoaded(t)
	r.Handle(1, proto.ReadReq{Txn: 5, Obj: "a", Depth: 0})
	r.Handle(1, proto.ReadReq{Txn: 6, Obj: "a", Depth: 1}) // nested: no metadata
	ci := r.Store().Contention("a")
	if ci.Readers != 1 {
		t.Fatalf("readers = %d, want 1 (only the root recorded)", ci.Readers)
	}
}

// nextVal is a test value linking to one successor (proto.Linker).
type nextVal struct{ next proto.ObjectID }

func (v nextVal) CloneValue() proto.Value { return v }

func (v nextVal) AppendLinks(dst []proto.ObjectID) []proto.ObjectID {
	if v.next != "" {
		dst = append(dst, v.next)
	}
	return dst
}

// TestBatchReadShipsLinkedOnlyWhenOK: an OK batched read carries the chain
// its copy links to; a denied one carries nothing.
func TestBatchReadShipsLinkedOnlyWhenOK(t *testing.T) {
	r := New(0)
	r.Handle(1, proto.LoadReq{Objects: []proto.ObjectCopy{
		{ID: "h", Version: 1, Val: nextVal{"n1"}},
		{ID: "n1", Version: 1, Val: nextVal{"n2"}},
		{ID: "n2", Version: 3, Val: nextVal{}},
	}})
	rep := r.Handle(1, proto.BatchReadReq{Txn: 5, Objs: []proto.ObjectID{"h"}, Rqv: true}).(proto.BatchReadRep)
	if !rep.OK || len(rep.Prefetch) != 2 || rep.Prefetch[0].ID != "n1" || rep.Prefetch[1].Version != 3 {
		t.Fatalf("OK reply: %+v, want n1 and n2@3 prefetched", rep)
	}
	stale := []proto.DataItem{{ID: "n2", Version: 1, OwnerDepth: 0, OwnerChk: proto.NoChk}}
	rep = r.Handle(1, proto.BatchReadReq{Txn: 6, Objs: []proto.ObjectID{"h"}, Rqv: true, Delta: stale}).(proto.BatchReadRep)
	if rep.OK || rep.Prefetch != nil {
		t.Fatalf("denied reply: %+v, want no prefetch", rep)
	}
}
