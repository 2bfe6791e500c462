package core_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"qrdtm/internal/bench"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// This file checks what transaction recycling and shared values must keep:
// a recycled root shell carries nothing of its last attempt, a retried
// closed-nested attempt nothing of the aborted one, and no mutation by the
// application reaches a value inside the engine.

// requestSpy records every request a runtime sends.
type requestSpy struct {
	inner cluster.Transport

	mu   sync.Mutex
	reqs []any
}

func (s *requestSpy) Call(ctx context.Context, from, to proto.NodeID, req any) (any, error) {
	s.mu.Lock()
	s.reqs = append(s.reqs, req)
	s.mu.Unlock()
	return s.inner.Call(ctx, from, to, req)
}

// take returns the requests recorded since the last take.
func (s *requestSpy) take() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.reqs
	s.reqs = nil
	return out
}

var errStop = errors.New("stop")

// TestRecycledRootCarriesNothing: a root attempt commits an open
// subtransaction holding an abstract lock, writes y, reads x (a bucket head
// whose reply prefetches z) and then aborts on a commit conflict. The next
// transaction on the same runtime creates a fresh object and touches z: its
// first read must ship its own footprint from watermark 0 and go to the
// quorum (no prefetched copy), its prepare must name its own two objects
// alone, and nothing may release the aborted attempt's abstract lock a
// second time.
func TestRecycledRootCarriesNothing(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	loadAll(tc.replicas, []proto.ObjectCopy{
		{ID: "x", Version: 1, Val: bench.ChainHead{First: "z"}},
		{ID: "z", Version: 1, Val: bench.ChainNode{Key: 1}},
	})
	tc.load(map[proto.ObjectID]int64{"y": 0, "log": 0})
	spy := &requestSpy{}
	tc.wrap = func(inner cluster.Transport) cluster.Transport { spy.inner = inner; return spy }
	rt, other := tc.runtime(3), tc.runtime(5)

	for round := 0; round < 3; round++ {
		attempts := 0
		err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
			if attempts++; attempts > 1 {
				return errStop // the retry gives up at once
			}
			// In this order, since every read round and Open empty the
			// prefetch cache: the attempt ends holding z prefetched.
			if err := tx.Open([]string{"lock"}, func(ot *core.Txn) error {
				return ot.Write("log", proto.Int64(int64(round)))
			}, nil); err != nil {
				return err
			}
			if err := tx.Write("y", proto.Int64(int64(round))); err != nil {
				return err
			}
			if _, err := tx.Read("x"); err != nil {
				return err
			}
			// x changes under the attempt: its prepare fails validation.
			mustAtomic(t, other, func(otx *core.Txn) error {
				return otx.Write("x", bench.ChainHead{First: "z"})
			})
			return nil
		})
		if !errors.Is(err, errStop) || attempts != 2 {
			t.Fatalf("round %d: Atomic = %v after %d attempts, want errStop after an abort", round, err, attempts)
		}
		spy.take()

		// The created object is in the log before the first read, which
		// therefore ships a delta: from watermark 0 unless one leaked.
		fresh := proto.ObjectID(fmt.Sprintf("fresh/%d", round))
		before := tc.metrics.Snapshot()
		mustAtomic(t, rt, func(tx *core.Txn) error {
			tx.Create(fresh, proto.Int64(1))
			v, err := tx.Read("z")
			if err != nil {
				return err
			}
			return tx.Write("z", v)
		})
		if d := tc.metrics.Snapshot().Sub(before); d.PrefetchHits != 0 || d.ReadRequests != 1 {
			t.Fatalf("round %d: prefetch hits %d, read rounds %d; want 0 and 1", round, d.PrefetchHits, d.ReadRequests)
		}
		var reads, prepares int
		for _, req := range spy.take() {
			switch m := req.(type) {
			case proto.BatchReadReq:
				if reads++; m.From != 0 || len(m.Delta) != 1 || m.Delta[0].ID != fresh || !slices.Equal(m.Objs, []proto.ObjectID{"z"}) {
					t.Fatalf("round %d: first read ships From %d, delta %v, objs %v; want 0, [%s], [z]", round, m.From, m.Delta, m.Objs, fresh)
				}
			case proto.PrepareReq:
				prepares++
				ids := []proto.ObjectID{}
				for _, w := range m.Writes {
					ids = append(ids, w.ID)
				}
				slices.Sort(ids)
				if len(m.Reads) != 0 || !slices.Equal(ids, []proto.ObjectID{fresh, "z"}) || len(m.AbsLocks) != 0 {
					t.Fatalf("round %d: prepare names reads %v, writes %v, locks %v; want only writes of %s and z", round, m.Reads, ids, m.AbsLocks, fresh)
				}
			case proto.DecideReq:
			default:
				t.Fatalf("round %d: the z transaction sent %T", round, req)
			}
		}
		if reads != 1 || prepares == 0 {
			t.Fatalf("round %d: %d reads and %d prepares, want 1 read and a prepare", round, reads, prepares)
		}
	}
}

// TestRetriedChildSeesNoAbortedEntry: a closed-nested child reads a and b,
// writes w and creates n, and then a conflict on b aborts it partially. Its
// retry must fetch a again from the quorum and read w and n as their
// committed (absent) values: nothing of the aborted attempt survives in the
// cleared child shell.
func TestRetriedChildSeesNoAbortedEntry(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	tc.load(map[proto.ObjectID]int64{"a": 1, "b": 2, "c": 3})
	rt, other := tc.runtime(5), tc.runtime(9)
	ctRuns := 0
	mustAtomic(t, rt, func(tx *core.Txn) error {
		return tx.Nested(func(ct *core.Txn) error {
			ctRuns++
			before := tc.metrics.Snapshot()
			readInt(t, ct, "a")
			if ctRuns > 1 {
				if d := tc.metrics.Snapshot().Sub(before); d.LocalReads != 0 {
					t.Fatalf("retry read a locally: the aborted attempt's entry survived")
				}
				for _, id := range []proto.ObjectID{"w", "n"} {
					if v, err := ct.Read(id); err != nil || v != nil {
						t.Fatalf("retry reads %s = %v (%v), want the absent committed value", id, v, err)
					}
				}
				return nil
			}
			readInt(t, ct, "b")
			if err := ct.Write("w", proto.Int64(7)); err != nil {
				return err
			}
			ct.Create("n", proto.Int64(8))
			mustAtomic(t, other, func(otx *core.Txn) error {
				return otx.Write("b", proto.Int64(20))
			})
			readInt(t, ct, "c") // validation names the child: a partial abort
			return nil
		})
	})
	if ctRuns != 2 || tc.metrics.CTAborts.Load() != 1 || tc.metrics.RootAborts.Load() != 0 {
		t.Fatalf("child ran %d times, CT aborts %d, root aborts %d; want 2, 1, 0",
			ctRuns, tc.metrics.CTAborts.Load(), tc.metrics.RootAborts.Load())
	}
}

// TestValuesCrossTheAPIAsCopies: the in-process cluster shares memory
// between client and replicas, and the engine shares values inside it, so
// only the clones at the API keep the application's mutations out. A value
// returned by Read, or passed to Write or Create, may be mutated at will
// without changing the replicas' copies or another transaction's reads.
func TestValuesCrossTheAPIAsCopies(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	loadAll(tc.replicas, []proto.ObjectCopy{{ID: "v", Version: 1, Val: proto.Int64Slice{1, 2, 3}}})
	rt, other := tc.runtime(3), tc.runtime(5)
	readSlice := func(tx *core.Txn, id proto.ObjectID) proto.Int64Slice {
		t.Helper()
		v, err := tx.Read(id)
		if err != nil {
			t.Fatalf("Read(%s): %v", id, err)
		}
		return v.(proto.Int64Slice)
	}
	// stored checks that every replica holding the newest version of id
	// stores want, that no replica's copy bears a mutation (the tests write
	// only 99 and -1 into values they hold), and that another transaction
	// reads want.
	stored := func(id proto.ObjectID, want proto.Int64Slice) {
		t.Helper()
		var newest proto.Version
		for _, r := range tc.replicas {
			c, _ := r.Store().Get(id)
			newest = max(newest, c.Version)
			if c.Val != nil && (slices.Contains(c.Val.(proto.Int64Slice), 99) || slices.Contains(c.Val.(proto.Int64Slice), -1)) {
				t.Fatalf("replica %v stores %s = %v: an application mutation reached it", r.ID, id, c.Val)
			}
		}
		for _, r := range tc.replicas {
			if c, _ := r.Store().Get(id); c.Version == newest && !slices.Equal(c.Val.(proto.Int64Slice), want) {
				t.Fatalf("replica %v stores %s = %v at version %d, want %v", r.ID, id, c.Val, c.Version, want)
			}
		}
		mustAtomic(t, other, func(tx *core.Txn) error {
			if got := readSlice(tx, id); !slices.Equal(got, want) {
				t.Fatalf("another transaction reads %s = %v, want %v", id, got, want)
			}
			return nil
		})
	}

	mustAtomic(t, rt, func(tx *core.Txn) error {
		readSlice(tx, "v")[0] = 99
		if got := readSlice(tx, "v"); got[0] != 1 {
			t.Fatalf("re-read after mutating a read value = %v, want [1 2 3]", got)
		}
		return nil
	})
	stored("v", proto.Int64Slice{1, 2, 3})

	mustAtomic(t, rt, func(tx *core.Txn) error {
		// Each way a value enters: a write promoting a read, a rewrite, a
		// blind write, a create, and a child's write shadowing its parent's.
		check := func(tx *core.Txn, id proto.ObjectID, want proto.Int64Slice) {
			t.Helper()
			if got := readSlice(tx, id); !slices.Equal(got, want) {
				t.Fatalf("read %s after mutating the value written = %v, want %v", id, got, want)
			}
		}
		readSlice(tx, "v")
		for _, w := range []proto.Int64Slice{{5, 6}, {7, 8, 9}} {
			if err := tx.Write("v", w); err != nil {
				return err
			}
			want := slices.Clone(w)
			w[0] = -1
			check(tx, "v", want)
		}
		u, n := proto.Int64Slice{1}, proto.Int64Slice{4, 5}
		if err := tx.Write("u", u); err != nil {
			return err
		}
		tx.Create("new", n)
		u[0], n[0] = -1, -1
		check(tx, "u", proto.Int64Slice{1})
		check(tx, "new", proto.Int64Slice{4, 5})
		readSlice(tx, "new")[1] = -1
		return tx.Nested(func(ct *core.Txn) error {
			c := proto.Int64Slice{2}
			if err := ct.Write("u", c); err != nil {
				return err
			}
			c[0] = -1
			check(ct, "u", proto.Int64Slice{2})
			return nil
		})
	})
	stored("v", proto.Int64Slice{7, 8, 9})
	stored("u", proto.Int64Slice{2})
	stored("new", proto.Int64Slice{4, 5})
}
