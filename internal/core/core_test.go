package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
)

// testCluster wires replicas, transport and runtimes for engine tests.
type testCluster struct {
	t        *testing.T
	trans    *cluster.MemTransport
	tree     *quorum.Tree
	replicas []*server.Replica
	metrics  *core.Metrics
	ids      *core.IDGen
	mode     core.Mode
	chkEvery int
	// wrap, when set, decorates the transport runtimes call through
	// (fault-injection variants); the raw MemTransport stays reachable via
	// trans for crash control and stats.
	wrap func(cluster.Transport) cluster.Transport
	// obs, when set, is the registry every runtime records into.
	obs *obs.Registry

	mu       sync.Mutex
	runtimes map[proto.NodeID]*core.Runtime
}

func newTestCluster(t *testing.T, nodes int, mode core.Mode) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:        t,
		trans:    cluster.NewMemTransport(),
		tree:     quorum.NewTree(nodes),
		metrics:  &core.Metrics{},
		ids:      core.NewIDGen(),
		mode:     mode,
		chkEvery: 1,
		runtimes: make(map[proto.NodeID]*core.Runtime),
	}
	for i := 0; i < nodes; i++ {
		r := server.New(proto.NodeID(i))
		tc.replicas = append(tc.replicas, r)
		tc.trans.Register(proto.NodeID(i), r.Handle)
	}
	return tc
}

func (tc *testCluster) runtime(n proto.NodeID) *core.Runtime {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if rt, ok := tc.runtimes[n]; ok {
		return rt
	}
	trans := cluster.Transport(tc.trans)
	if tc.wrap != nil {
		trans = tc.wrap(trans)
	}
	rt, err := core.NewRuntime(core.Config{
		Node:      n,
		Transport: trans,
		Quorums: core.TreeQuorums{
			Tree:  tc.tree,
			Alive: func(id proto.NodeID) bool { return !tc.trans.Down(id) },
		},
		Mode:            tc.mode,
		IDs:             tc.ids,
		Metrics:         tc.metrics,
		CheckpointEvery: tc.chkEvery,
		MaxRetries:      100000,
		BackoffBase:     20 * time.Microsecond,
		BackoffMax:      2 * time.Millisecond,
		Obs:             tc.obs,
	})
	if err != nil {
		tc.t.Fatalf("NewRuntime(%v): %v", n, err)
	}
	tc.runtimes[n] = rt
	return rt
}

func (tc *testCluster) load(kv map[proto.ObjectID]int64) {
	copies := make([]proto.ObjectCopy, 0, len(kv))
	for id, v := range kv {
		copies = append(copies, proto.ObjectCopy{ID: id, Version: 1, Val: proto.Int64(v)})
	}
	for _, r := range tc.replicas {
		r.Store().Load(copies)
	}
}

// committed resolves the latest committed value of id through a fresh read
// quorum (non-transactional test oracle).
func (tc *testCluster) committed(id proto.ObjectID) (proto.Version, int64) {
	alive := func(n proto.NodeID) bool { return !tc.trans.Down(n) }
	rq, err := tc.tree.ReadQuorum(alive)
	if err != nil {
		tc.t.Fatalf("oracle read quorum: %v", err)
	}
	var best proto.ObjectCopy
	for _, n := range rq {
		cp, ok := tc.replicas[n].Store().Get(id)
		if ok && cp.Version >= best.Version {
			best = cp
		}
	}
	if best.Val == nil {
		return best.Version, 0
	}
	return best.Version, int64(best.Val.(proto.Int64))
}

func mustAtomic(t *testing.T, rt *core.Runtime, body func(*core.Txn) error) {
	t.Helper()
	if err := rt.Atomic(context.Background(), body); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
}

func readInt(t *testing.T, tx *core.Txn, id proto.ObjectID) int64 {
	t.Helper()
	v, err := tx.Read(id)
	if err != nil {
		t.Fatalf("Read(%v): %v", id, err)
	}
	if v == nil {
		return 0
	}
	return int64(v.(proto.Int64))
}

func TestFlatReadWriteCommit(t *testing.T) {
	tc := newTestCluster(t, 13, core.Flat)
	tc.load(map[proto.ObjectID]int64{"a": 10, "b": 20})
	rt := tc.runtime(4)

	mustAtomic(t, rt, func(tx *core.Txn) error {
		a := readInt(t, tx, "a")
		b := readInt(t, tx, "b")
		if a != 10 || b != 20 {
			t.Fatalf("read a=%d b=%d", a, b)
		}
		return tx.Write("a", proto.Int64(a+b))
	})

	v, got := tc.committed("a")
	if got != 30 {
		t.Fatalf("committed a = %d, want 30", got)
	}
	if v != 2 {
		t.Fatalf("committed version = %d, want 2", v)
	}
	if c := tc.metrics.Commits.Load(); c != 1 {
		t.Fatalf("commits = %d", c)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	for _, mode := range []core.Mode{core.Flat, core.FlatRqv, core.Closed, core.Checkpoint} {
		t.Run(mode.String(), func(t *testing.T) {
			tc := newTestCluster(t, 4, mode)
			tc.load(map[proto.ObjectID]int64{"x": 1})
			mustAtomic(t, tc.runtime(0), func(tx *core.Txn) error {
				if err := tx.Write("x", proto.Int64(42)); err != nil {
					return err
				}
				if got := readInt(t, tx, "x"); got != 42 {
					t.Fatalf("read-own-write = %d", got)
				}
				return nil
			})
		})
	}
}

func TestReadUnknownObjectIsNil(t *testing.T) {
	tc := newTestCluster(t, 4, core.Flat)
	mustAtomic(t, tc.runtime(0), func(tx *core.Txn) error {
		v, err := tx.Read("nothing")
		if err != nil {
			return err
		}
		if v != nil {
			t.Fatalf("unknown object read as %v", v)
		}
		return nil
	})
}

func TestUserErrorCancelsTransaction(t *testing.T) {
	tc := newTestCluster(t, 4, core.Flat)
	tc.load(map[proto.ObjectID]int64{"a": 1})
	boom := errors.New("boom")
	err := tc.runtime(0).Atomic(context.Background(), func(tx *core.Txn) error {
		if err := tx.Write("a", proto.Int64(99)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, got := tc.committed("a"); got != 1 {
		t.Fatalf("cancelled transaction leaked a write: a = %d", got)
	}
	if c := tc.metrics.Commits.Load(); c != 0 {
		t.Fatalf("commits = %d, want 0", c)
	}
}

func TestContextCancellation(t *testing.T) {
	tc := newTestCluster(t, 4, core.Flat)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := tc.runtime(0).Atomic(ctx, func(tx *core.Txn) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWriteConflictAbortsAndRetries(t *testing.T) {
	tc := newTestCluster(t, 13, core.Flat)
	tc.load(map[proto.ObjectID]int64{"a": 0})
	rt1, rt2 := tc.runtime(5), tc.runtime(9)

	injected := false
	mustAtomic(t, rt1, func(tx *core.Txn) error {
		a := readInt(t, tx, "a")
		if !injected {
			injected = true
			// A conflicting transaction commits between our read and commit.
			mustAtomic(t, rt2, func(tx2 *core.Txn) error {
				return tx2.Write("a", proto.Int64(readInt(t, tx2, "a")+100))
			})
		}
		return tx.Write("a", proto.Int64(a+1))
	})

	if _, got := tc.committed("a"); got != 101 {
		t.Fatalf("a = %d, want 101 (retry must observe the conflicting write)", got)
	}
	if aborts := tc.metrics.RootAborts.Load(); aborts != 1 {
		t.Fatalf("root aborts = %d, want 1", aborts)
	}
}

func TestFlatRqvAbortsEarlyOnRead(t *testing.T) {
	tc := newTestCluster(t, 13, core.FlatRqv)
	tc.load(map[proto.ObjectID]int64{"a": 0, "b": 0})
	rt1, rt2 := tc.runtime(5), tc.runtime(9)

	injected := false
	mustAtomic(t, rt1, func(tx *core.Txn) error {
		_ = readInt(t, tx, "a")
		if !injected {
			injected = true
			mustAtomic(t, rt2, func(tx2 *core.Txn) error {
				return tx2.Write("a", proto.Int64(7))
			})
		}
		// This read's validation must notice the stale "a" and abort the
		// whole flat transaction.
		_ = readInt(t, tx, "b")
		return tx.Write("b", proto.Int64(1))
	})
	if aborts := tc.metrics.RootAborts.Load(); aborts != 1 {
		t.Fatalf("root aborts = %d, want 1 (early Rqv abort)", aborts)
	}
}

func TestReadOnlyLocalCommitUnderRqv(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	tc.load(map[proto.ObjectID]int64{"a": 1, "b": 2})
	rt := tc.runtime(3)
	before := tc.trans.Stats().Calls

	mustAtomic(t, rt, func(tx *core.Txn) error {
		_ = readInt(t, tx, "a")
		_ = readInt(t, tx, "b")
		return nil
	})

	if lc := tc.metrics.LocalCommits.Load(); lc != 1 {
		t.Fatalf("local commits = %d, want 1", lc)
	}
	calls := tc.trans.Stats().Calls - before
	// Two read multicasts to a 1-node read quorum, zero commit traffic.
	if calls != 2 {
		t.Fatalf("transport calls = %d, want 2 (no commit request)", calls)
	}
}

func TestFlatReadOnlyStillValidatesAtCommit(t *testing.T) {
	tc := newTestCluster(t, 13, core.Flat)
	tc.load(map[proto.ObjectID]int64{"a": 1})
	rt := tc.runtime(3)
	mustAtomic(t, rt, func(tx *core.Txn) error {
		_ = readInt(t, tx, "a")
		return nil
	})
	if lc := tc.metrics.LocalCommits.Load(); lc != 0 {
		t.Fatalf("flat read-only must not commit locally")
	}
	if cr := tc.metrics.CommitRequests.Load(); cr != 1 {
		t.Fatalf("commit requests = %d, want 1", cr)
	}
}

func TestClosedNestedPartialAbort(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	tc.load(map[proto.ObjectID]int64{"a": 1, "b": 2, "c": 3})
	rt1, rt2 := tc.runtime(5), tc.runtime(9)

	rootRuns, ctRuns := 0, 0
	injected := false
	mustAtomic(t, rt1, func(tx *core.Txn) error {
		rootRuns++
		a := readInt(t, tx, "a")
		return tx.Nested(func(ct *core.Txn) error {
			ctRuns++
			b := readInt(t, ct, "b")
			if !injected {
				injected = true
				// Invalidate the CHILD's object b: the abort target must be
				// the child, and only it retries.
				mustAtomic(t, rt2, func(tx2 *core.Txn) error {
					return tx2.Write("b", proto.Int64(20))
				})
			}
			_ = readInt(t, ct, "c")
			return ct.Write("c", proto.Int64(a+b))
		})
	})

	if rootRuns != 1 {
		t.Fatalf("root ran %d times, want 1 (partial abort)", rootRuns)
	}
	if ctRuns != 2 {
		t.Fatalf("CT ran %d times, want 2", ctRuns)
	}
	if got := tc.metrics.CTAborts.Load(); got != 1 {
		t.Fatalf("CT aborts = %d, want 1", got)
	}
	if got := tc.metrics.RootAborts.Load(); got != 0 {
		// rt2's conflicting transaction runs under the same metrics and
		// commits cleanly, so any root abort would be a routing bug.
		t.Fatalf("root aborts = %d, want 0 (abort must stay partial)", got)
	}
	if _, got := tc.committed("c"); got != 21 {
		t.Fatalf("c = %d, want 21 (retried CT must see b=20)", got)
	}
}

func TestClosedNestedAbortTargetsParent(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	tc.load(map[proto.ObjectID]int64{"a": 1, "b": 2, "c": 3})
	rt1, rt2 := tc.runtime(5), tc.runtime(9)

	rootRuns, ctRuns := 0, 0
	injected := false
	mustAtomic(t, rt1, func(tx *core.Txn) error {
		rootRuns++
		a := readInt(t, tx, "a")
		return tx.Nested(func(ct *core.Txn) error {
			ctRuns++
			if !injected {
				injected = true
				// Invalidate the PARENT's object a: abortClosed is the
				// root, so the whole transaction restarts.
				mustAtomic(t, rt2, func(tx2 *core.Txn) error {
					return tx2.Write("a", proto.Int64(10))
				})
			}
			b := readInt(t, ct, "b")
			return ct.Write("c", proto.Int64(a+b))
		})
	})

	if rootRuns != 2 {
		t.Fatalf("root ran %d times, want 2 (full abort)", rootRuns)
	}
	if ctRuns != 2 {
		t.Fatalf("CT ran %d times, want 2", ctRuns)
	}
	if _, got := tc.committed("c"); got != 12 {
		t.Fatalf("c = %d, want 12 (retry must see a=10)", got)
	}
}

func TestNestedCommitInvisibleUntilRootCommit(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	tc.load(map[proto.ObjectID]int64{"x": 1})
	rt := tc.runtime(5)

	mustAtomic(t, rt, func(tx *core.Txn) error {
		if err := tx.Nested(func(ct *core.Txn) error {
			return ct.Write("x", proto.Int64(99))
		}); err != nil {
			return err
		}
		// The CT has committed (locally); globally x must still be 1.
		if _, got := tc.committed("x"); got != 1 {
			t.Fatalf("CT commit leaked: x = %d", got)
		}
		// But the parent sees the merged write.
		if got := readInt(t, tx, "x"); got != 99 {
			t.Fatalf("parent does not see merged write: %d", got)
		}
		return nil
	})
	if _, got := tc.committed("x"); got != 99 {
		t.Fatalf("after root commit x = %d", got)
	}
	if got := tc.metrics.CTCommits.Load(); got != 1 {
		t.Fatalf("CT commits = %d", got)
	}
}

func TestDeeplyNestedAbortRouting(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	tc.load(map[proto.ObjectID]int64{"a": 1, "b": 2, "c": 3, "d": 4})
	rt1, rt2 := tc.runtime(5), tc.runtime(9)

	runs := [3]int{} // body run counts per depth
	injected := false
	mustAtomic(t, rt1, func(tx *core.Txn) error {
		runs[0]++
		_ = readInt(t, tx, "a")
		return tx.Nested(func(mid *core.Txn) error {
			runs[1]++
			b := readInt(t, mid, "b")
			return mid.Nested(func(inner *core.Txn) error {
				runs[2]++
				if !injected {
					injected = true
					// Invalidate the MIDDLE transaction's object: depth-1
					// retries, which re-runs the inner body too, but the
					// root continues untouched.
					mustAtomic(t, rt2, func(tx2 *core.Txn) error {
						return tx2.Write("b", proto.Int64(200))
					})
				}
				c := readInt(t, inner, "c")
				return inner.Write("d", proto.Int64(b+c))
			})
		})
	})

	if runs[0] != 1 || runs[1] != 2 || runs[2] != 2 {
		t.Fatalf("run counts = %v, want [1 2 2]", runs)
	}
	if _, got := tc.committed("d"); got != 203 {
		t.Fatalf("d = %d, want 203", got)
	}
}

func TestCreateSkipsRemoteFetch(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	rt := tc.runtime(0)
	before := tc.metrics.ReadRequests.Load()
	mustAtomic(t, rt, func(tx *core.Txn) error {
		tx.Create("fresh", proto.Int64(5))
		return nil
	})
	if got := tc.metrics.ReadRequests.Load() - before; got != 0 {
		t.Fatalf("Create issued %d read requests", got)
	}
	if _, got := tc.committed("fresh"); got != 5 {
		t.Fatalf("fresh = %d", got)
	}
}

func TestCreateConflictOnExistingIDCaught(t *testing.T) {
	tc := newTestCluster(t, 13, core.Flat)
	tc.load(map[proto.ObjectID]int64{"taken": 7})
	rt := tc.runtime(0)
	attempts := 0
	mustAtomic(t, rt, func(tx *core.Txn) error {
		attempts++
		if attempts == 1 {
			tx.Create("taken", proto.Int64(1)) // version-0 write must conflict
			return nil
		}
		// Retry path: behave like a good citizen.
		v := readInt(t, tx, "taken")
		return tx.Write("taken", proto.Int64(v+1))
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (create on existing id must abort)", attempts)
	}
	if _, got := tc.committed("taken"); got != 8 {
		t.Fatalf("taken = %d, want 8", got)
	}
}

func TestCheckpointRollbackResumesMidway(t *testing.T) {
	tc := newTestCluster(t, 13, core.Checkpoint)
	tc.chkEvery = 1
	tc.load(map[proto.ObjectID]int64{"a": 1, "b": 2, "c": 3})
	rt1, rt2 := tc.runtime(5), tc.runtime(9)

	runs := [3]int{}
	injected := false
	steps := []core.Step{
		func(tx *core.Txn, s core.State) error {
			runs[0]++
			s.(*chkState).A = readInt(t, tx, "a")
			return nil
		},
		func(tx *core.Txn, s core.State) error {
			runs[1]++
			s.(*chkState).B = readInt(t, tx, "b")
			if !injected {
				injected = true
				mustAtomic(t, rt2, func(tx2 *core.Txn) error {
					return tx2.Write("b", proto.Int64(20))
				})
			}
			return nil
		},
		func(tx *core.Txn, s core.State) error {
			runs[2]++
			// The read of c triggers validation; the stale b was acquired
			// in epoch 1, so the rollback target is checkpoint 1 (= resume
			// before step 1), not the beginning.
			c := readInt(t, tx, "c")
			v := s.(*chkState)
			return tx.Write("sum", proto.Int64(v.A+v.B+c))
		},
	}

	out, err := rt1.AtomicSteps(context.Background(), &chkState{}, steps)
	if err != nil {
		t.Fatalf("AtomicSteps: %v", err)
	}
	if runs[0] != 1 {
		t.Fatalf("step0 ran %d times, want 1 (rollback must not restart)", runs[0])
	}
	if runs[1] != 2 {
		t.Fatalf("step1 ran %d times, want 2", runs[1])
	}
	if got := tc.metrics.ChkRollbacks.Load(); got != 1 {
		t.Fatalf("rollbacks = %d, want 1", got)
	}
	if got := out.(*chkState).B; got != 20 {
		t.Fatalf("state B = %d, want 20 (resumed step must observe new value)", got)
	}
	if _, got := tc.committed("sum"); got != 1+20+3 {
		t.Fatalf("sum = %d, want 24", got)
	}
}

type chkState struct {
	A, B, C int64
}

func (s *chkState) CloneState() core.State { out := *s; return &out }

func TestCheckpointStateRestoredOnRollback(t *testing.T) {
	tc := newTestCluster(t, 13, core.Checkpoint)
	tc.chkEvery = 1
	tc.load(map[proto.ObjectID]int64{"a": 1, "b": 2})
	rt1, rt2 := tc.runtime(5), tc.runtime(9)

	injected := false
	var observed []int64 // state.A values seen at step1 entry
	steps := []core.Step{
		func(tx *core.Txn, s core.State) error {
			s.(*chkState).A = readInt(t, tx, "a")
			return nil
		},
		func(tx *core.Txn, s core.State) error {
			observed = append(observed, s.(*chkState).A)
			s.(*chkState).A = -999 // corrupt state after the checkpoint
			_ = readInt(t, tx, "b")
			if !injected {
				injected = true
				mustAtomic(t, rt2, func(tx2 *core.Txn) error {
					return tx2.Write("b", proto.Int64(22))
				})
				// Force a validation round that notices stale b.
				_ = readInt(t, tx, "a2")
			}
			return nil
		},
	}
	out, err := rt1.AtomicSteps(context.Background(), &chkState{}, steps)
	if err != nil {
		t.Fatalf("AtomicSteps: %v", err)
	}
	if len(observed) != 2 || observed[0] != 1 || observed[1] != 1 {
		t.Fatalf("state not restored on rollback: observed %v", observed)
	}
	if out.(*chkState).A != -999 {
		t.Fatalf("final state = %+v", out)
	}
}

func TestCheckpointCommitConflictRestartsFully(t *testing.T) {
	tc := newTestCluster(t, 13, core.Checkpoint)
	tc.chkEvery = 100 // no checkpoints beyond the implicit start
	tc.load(map[proto.ObjectID]int64{"a": 1})
	rt1, rt2 := tc.runtime(5), tc.runtime(9)

	runs := 0
	injected := false
	steps := []core.Step{
		func(tx *core.Txn, s core.State) error {
			runs++
			a := readInt(t, tx, "a")
			if !injected {
				injected = true
				mustAtomic(t, rt2, func(tx2 *core.Txn) error {
					return tx2.Write("a", proto.Int64(10))
				})
			}
			return tx.Write("a", proto.Int64(a+1))
		},
	}
	if _, err := rt1.AtomicSteps(context.Background(), core.NoState{}, steps); err != nil {
		t.Fatalf("AtomicSteps: %v", err)
	}
	if runs != 2 {
		t.Fatalf("step ran %d times, want 2 (commit conflict restarts)", runs)
	}
	if got := tc.metrics.RootAborts.Load(); got != 1 {
		t.Fatalf("root aborts = %d", got)
	}
	if _, got := tc.committed("a"); got != 11 {
		t.Fatalf("a = %d, want 11", got)
	}
}

func TestAtomicStepsEquivalentAcrossModes(t *testing.T) {
	for _, mode := range []core.Mode{core.Flat, core.FlatRqv, core.Closed, core.Checkpoint} {
		t.Run(mode.String(), func(t *testing.T) {
			tc := newTestCluster(t, 13, mode)
			tc.load(map[proto.ObjectID]int64{"x": 3, "y": 4})
			steps := []core.Step{
				func(tx *core.Txn, s core.State) error {
					s.(*chkState).A = readInt(t, tx, "x")
					return nil
				},
				func(tx *core.Txn, s core.State) error {
					s.(*chkState).B = readInt(t, tx, "y")
					return tx.Write("z", proto.Int64(s.(*chkState).A*s.(*chkState).B))
				},
			}
			out, err := tc.runtime(2).AtomicSteps(context.Background(), &chkState{}, steps)
			if err != nil {
				t.Fatalf("AtomicSteps: %v", err)
			}
			if out.(*chkState).A != 3 || out.(*chkState).B != 4 {
				t.Fatalf("state = %+v", out)
			}
			if _, got := tc.committed("z"); got != 12 {
				t.Fatalf("z = %d", got)
			}
		})
	}
}

func TestMaxRetriesBounds(t *testing.T) {
	tc := newTestCluster(t, 4, core.Flat)
	tc.load(map[proto.ObjectID]int64{"hot": 0})
	rt1, rt2 := tc.runtime(0), tc.runtime(1)

	// Every attempt of rt1's transaction is sabotaged by a fresh conflicting
	// commit from rt2, so it must give up after MaxRetries.
	rtBounded, err := core.NewRuntime(core.Config{
		Node:      2,
		Transport: tc.trans,
		Quorums:   core.TreeQuorums{Tree: tc.tree},
		Mode:      core.Flat,
		IDs:       tc.ids, Metrics: tc.metrics,
		MaxRetries:  3,
		BackoffBase: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rt1
	err = rtBounded.Atomic(context.Background(), func(tx *core.Txn) error {
		v := readInt(t, tx, "hot")
		mustAtomic(t, rt2, func(tx2 *core.Txn) error {
			return tx2.Write("hot", proto.Int64(readInt(t, tx2, "hot")+1))
		})
		return tx.Write("hot", proto.Int64(v+100))
	})
	if !errors.Is(err, core.ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTooManyRetries", err)
	}
}

func TestConcurrentBankConservation(t *testing.T) {
	const (
		accounts = 16
		clients  = 4
		txns     = 60
		initial  = 1000
	)
	for _, mode := range []core.Mode{core.Flat, core.FlatRqv, core.Closed, core.Checkpoint} {
		t.Run(mode.String(), func(t *testing.T) {
			tc := newTestCluster(t, 13, mode)
			kv := make(map[proto.ObjectID]int64)
			for i := 0; i < accounts; i++ {
				kv[acct(i)] = initial
			}
			tc.load(kv)

			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rt := tc.runtime(proto.NodeID(c % 13))
					for i := 0; i < txns; i++ {
						from, to := (c*7+i)%accounts, (c*3+i*5+1)%accounts
						if from == to {
							to = (to + 1) % accounts
						}
						err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
							return transfer(tx, acct(from), acct(to), 10)
						})
						if err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(c)
			}
			wg.Wait()

			total := int64(0)
			for i := 0; i < accounts; i++ {
				_, v := tc.committed(acct(i))
				total += v
			}
			if total != accounts*initial {
				t.Fatalf("total = %d, want %d (money not conserved)", total, accounts*initial)
			}
		})
	}
}

func acct(i int) proto.ObjectID { return proto.ObjectID(fmt.Sprintf("acct/%d", i)) }

func transfer(tx *core.Txn, from, to proto.ObjectID, amt int64) error {
	fv, err := tx.Read(from)
	if err != nil {
		return err
	}
	tv, err := tx.Read(to)
	if err != nil {
		return err
	}
	f, tt := int64(fv.(proto.Int64)), int64(tv.(proto.Int64))
	if err := tx.Write(from, proto.Int64(f-amt)); err != nil {
		return err
	}
	return tx.Write(to, proto.Int64(tt+amt))
}

// TestConsistentSnapshots runs writers and read-only auditors concurrently;
// every committed audit must observe the invariant total (serializability
// witness for Theorem V.1).
func TestConsistentSnapshots(t *testing.T) {
	const (
		accounts = 8
		initial  = 100
	)
	for _, mode := range []core.Mode{core.Flat, core.Closed, core.Checkpoint} {
		t.Run(mode.String(), func(t *testing.T) {
			tc := newTestCluster(t, 13, mode)
			kv := make(map[proto.ObjectID]int64)
			for i := 0; i < accounts; i++ {
				kv[acct(i)] = initial
			}
			tc.load(kv)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // writer
				defer wg.Done()
				rt := tc.runtime(1)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					from, to := i%accounts, (i+3)%accounts
					if from == to {
						continue
					}
					if err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
						return transfer(tx, acct(from), acct(to), 5)
					}); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					time.Sleep(300 * time.Microsecond)
				}
			}()

			rt := tc.runtime(7)
			for a := 0; a < 40; a++ {
				var total int64
				err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
					total = 0
					for i := 0; i < accounts; i++ {
						total += readInt(t, tx, acct(i))
					}
					return nil
				})
				if err != nil {
					t.Fatalf("audit: %v", err)
				}
				if total != accounts*initial {
					t.Fatalf("audit %d observed inconsistent snapshot: total = %d, want %d",
						a, total, accounts*initial)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

func TestFailureTransparentToTransactions(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	tc.load(map[proto.ObjectID]int64{"a": 1})
	rt := tc.runtime(5)

	mustAtomic(t, rt, func(tx *core.Txn) error {
		return tx.Write("a", proto.Int64(2))
	})

	// Crash the root (the canonical read quorum) and a write-quorum member.
	tc.trans.Fail(0)
	tc.trans.Fail(1)

	mustAtomic(t, rt, func(tx *core.Txn) error {
		v := readInt(t, tx, "a")
		if v != 2 {
			t.Fatalf("read after failure = %d, want 2", v)
		}
		return tx.Write("a", proto.Int64(3))
	})
	if got := tc.metrics.QuorumRefreshes.Load(); got == 0 {
		t.Fatal("expected at least one quorum reconfiguration")
	}
	if _, got := tc.committed("a"); got != 3 {
		t.Fatalf("a = %d, want 3", got)
	}
}

func TestUnavailableWhenClusterDies(t *testing.T) {
	tc := newTestCluster(t, 4, core.Flat)
	tc.load(map[proto.ObjectID]int64{"a": 1})
	rt := tc.runtime(0)
	for i := 1; i < 4; i++ {
		tc.trans.Fail(proto.NodeID(i))
	}
	tc.trans.Fail(0)
	err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
		_, err := tx.Read("a")
		return err
	})
	if err == nil {
		t.Fatal("expected failure with the whole cluster down")
	}
}

// TestFlatZombieAbortLeavesSpan pins that a flat transaction's zombie abort
// is recorded like every other abort. Transaction A reads x, another runtime
// then moves d from x to y, and A reads y, sees x+y != 100 and fails;
// revalidation finds x stale and turns the failure into an abort-and-retry.
// That abort must count once as read-validation and leave exactly one abort
// span, under the failed attempt, in A's trace.
func TestFlatZombieAbortLeavesSpan(t *testing.T) {
	const d = 10
	tc := newTestCluster(t, 4, core.Flat)
	tc.obs = obs.NewRegistry().WithSpans(obs.NewSpanBuffer(1 << 10))
	tc.load(map[proto.ObjectID]int64{"x": 40, "y": 60})
	a, other := tc.runtime(0), tc.runtime(1)

	var once sync.Once
	mustAtomic(t, a, func(tx *core.Txn) error {
		x := readInt(t, tx, "x")
		once.Do(func() {
			mustAtomic(t, other, func(tx *core.Txn) error {
				if err := tx.Write("x", proto.Int64(readInt(t, tx, "x")-d)); err != nil {
					return err
				}
				return tx.Write("y", proto.Int64(readInt(t, tx, "y")+d))
			})
		})
		if y := readInt(t, tx, "y"); x+y != 100 {
			return fmt.Errorf("invariant broken: x+y = %d", x+y)
		}
		return nil
	})

	if got := tc.obs.Snapshot().Aborts["read-validation"]; got != 1 {
		t.Fatalf("read-validation aborts = %d, want 1", got)
	}
	spans := tc.obs.Spans().Spans()
	byID := map[uint64]proto.Span{}
	var root proto.Span
	for _, s := range spans {
		byID[s.ID] = s
		if s.Kind == proto.SpanRoot && s.Node == 0 {
			root = s
		}
	}
	var aborts []proto.Span
	for _, s := range spans {
		if s.Trace == root.Trace && s.Kind == proto.SpanAbort && s.Note == "read-validation" {
			aborts = append(aborts, s)
		}
	}
	if root.ID == 0 || len(aborts) != 1 {
		t.Fatalf("A's trace holds %d read-validation abort spans, want 1", len(aborts))
	}
	if p := byID[aborts[0].Parent]; p.Kind != proto.SpanAttempt || p.OK || aborts[0].Depth != 0 {
		t.Fatalf("abort span %+v not a depth-0 child of the failed attempt (parent %+v)", aborts[0], p)
	}
	if err := obs.CheckTrace(spans).Err(); err != nil {
		t.Fatal(err)
	}
}

// TestOpacityUnderRqv is Theorem V.1 as an executable check: with Rqv, a
// live transaction's view is consistent at every point — not only at
// commit. Writers preserve the invariant x + y == 100 in every commit;
// closed-mode readers assert it inside the transaction body immediately
// after the second read. Flat mode gives no such guarantee (zombies), which
// is exactly what the engine's revalidation machinery exists for.
func TestOpacityUnderRqv(t *testing.T) {
	for _, mode := range []core.Mode{core.FlatRqv, core.Closed, core.Checkpoint} {
		t.Run(mode.String(), func(t *testing.T) {
			tc := newTestCluster(t, 13, mode)
			tc.load(map[proto.ObjectID]int64{"x": 40, "y": 60})

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt := tc.runtime(1)
				rng := int64(1)
				for {
					select {
					case <-stop:
						return
					default:
					}
					rng = rng*1103515245 + 12345
					delta := rng % 7
					if err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
						x := readInt(t, tx, "x")
						y := readInt(t, tx, "y")
						if err := tx.Write("x", proto.Int64(x-delta)); err != nil {
							return err
						}
						return tx.Write("y", proto.Int64(y+delta))
					}); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()

			rt := tc.runtime(7)
			for i := 0; i < 60; i++ {
				err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
					x := readInt(t, tx, "x")
					y := readInt(t, tx, "y") // validates x via Rqv
					if x+y != 100 {
						t.Fatalf("opacity violated mid-transaction: x+y = %d", x+y)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("reader: %v", err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
