package core_test

import (
	"context"
	"testing"

	"qrdtm/internal/bench"
	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// Allocation ceilings of a warm transaction over a 13-node in-process
// cluster, client and replicas together. This engine measures 73 and 13
// allocations (93 and 36 before transaction shells were recycled and values
// shared); the ceilings leave two for noise. A change that goes back to
// allocating a transaction's shell, sets, log or entries afresh crosses
// them.
const (
	transferAllocCeiling = 75 // a bank transfer: two reads, two writes, a two-phase commit
	lookupAllocCeiling   = 15 // a closed-nested read-only chain lookup, committed locally
)

func TestWarmTransactionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and drops pooled shells at random")
	}
	tc := newTestCluster(t, 13, core.Closed)
	tc.load(map[proto.ObjectID]int64{"a": 1 << 40, "b": 0})
	nodes := chainIDs(3)
	loadAll(tc.replicas, chainCopies(nodes))
	rt := tc.runtime(3)
	ctx := context.Background()

	transfer := func() {
		if err := rt.Atomic(ctx, func(tx *core.Txn) error {
			a, err := tx.Read("a")
			if err != nil {
				return err
			}
			b, err := tx.Read("b")
			if err != nil {
				return err
			}
			if err := tx.Write("a", a.(proto.Int64)-1); err != nil {
				return err
			}
			return tx.Write("b", b.(proto.Int64)+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func() {
		if err := rt.Atomic(ctx, func(tx *core.Txn) error {
			return tx.Nested(func(ct *core.Txn) error {
				for id := proto.ObjectID("h"); id != ""; {
					v, err := ct.Read(id)
					if err != nil {
						return err
					}
					switch n := v.(type) {
					case bench.ChainHead:
						id = n.First
					case bench.ChainNode:
						id = n.Next
					}
				}
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		run     func()
		ceiling float64
	}{
		{"transfer", transfer, transferAllocCeiling},
		{"lookup", lookup, lookupAllocCeiling},
	} {
		before := tc.metrics.Snapshot()
		got := testing.AllocsPerRun(200, c.run)
		if d := tc.metrics.Snapshot().Sub(before); d.RootAborts != 0 || d.CTAborts != 0 {
			t.Fatalf("%s: %d root and %d CT aborts in a single-client run", c.name, d.RootAborts, d.CTAborts)
		}
		t.Logf("%s: %.1f allocations per transaction (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: %.1f allocations per transaction, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
