// In-process durable recovery over real TCP: a cluster of WAL-backed
// replicas loses one member mid-workload, keeps committing around it, and
// the member restarts from its data directory and catches up from its
// peers' log tails — or, when the peers have compacted past its cursor,
// falls back to a full state transfer. The crash itself is simulated
// in-process (WAL closed, listener torn down); the kill -9 variant lives in
// tcp_crash_test.go.
package qrdtm_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm"
	"qrdtm/internal/core"
	"qrdtm/internal/proto"
	"qrdtm/internal/server"
	"qrdtm/internal/testcluster"
)

const durableAccounts = 8

// bankAccounts is the initial bank: durableAccounts accounts of 100 each.
func bankAccounts() []proto.ObjectCopy {
	var objs []proto.ObjectCopy
	for i := 0; i < durableAccounts; i++ {
		objs = append(objs, proto.ObjectCopy{
			ID: proto.ObjectID(fmt.Sprintf("acct-%d", i)), Version: 1, Val: proto.Int64(100),
		})
	}
	return objs
}

// transferStorm runs n committed transfers between rotating account pairs.
func transferStorm(t *testing.T, rt *core.Runtime, n, round int) {
	t.Helper()
	for i := 0; i < n; i++ {
		from := proto.ObjectID(fmt.Sprintf("acct-%d", (round+i)%durableAccounts))
		to := proto.ObjectID(fmt.Sprintf("acct-%d", (round+i+1)%durableAccounts))
		err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
			fv, err := tx.Read(from)
			if err != nil {
				return err
			}
			tv, err := tx.Read(to)
			if err != nil {
				return err
			}
			if err := tx.Write(from, proto.Int64(int64(fv.(proto.Int64))-1)); err != nil {
				return err
			}
			return tx.Write(to, proto.Int64(int64(tv.(proto.Int64))+1))
		})
		if err != nil {
			t.Fatalf("transfer %d (round %d): %v", i, round, err)
		}
	}
}

func assertBankConserved(t *testing.T, rep *server.Replica, label string) {
	t.Helper()
	sum := int64(0)
	for i := 0; i < durableAccounts; i++ {
		c, ok := rep.Store().Get(proto.ObjectID(fmt.Sprintf("acct-%d", i)))
		if !ok {
			t.Fatalf("%s: acct-%d missing", label, i)
		}
		sum += int64(c.Val.(proto.Int64))
	}
	if sum != durableAccounts*100 {
		t.Fatalf("%s: bank sum = %d, want %d", label, sum, durableAccounts*100)
	}
}

// runDurableRecovery drives the shared crash/restart scenario and returns
// the restarted replica plus its catch-up stats. compact controls whether
// the surviving peers snapshot (compacting their logs) before the victim
// returns — forcing the full-resync path instead of the tail.
func runDurableRecovery(t *testing.T, compact bool) (*server.Replica, qrdtm.CatchUpStats) {
	t.Helper()
	const victim = proto.NodeID(3)
	tc := startTCP(t, testcluster.Options{Nodes: 4, Dir: t.TempDir()})
	tc.Load(bankAccounts()) // logged, so every replica restores it
	var victimDown atomic.Bool

	rt, err := core.NewRuntime(core.Config{
		Node:      proto.NodeID(0),
		Transport: tc.Transport,
		Quorums: core.TreeQuorums{
			Tree:  tc.Tree,
			Alive: func(id proto.NodeID) bool { return id != victim || !victimDown.Load() },
		},
		Mode:    core.Closed,
		IDs:     core.NewIDGen(),
		Metrics: &core.Metrics{},
	})
	if err != nil {
		t.Fatal(err)
	}

	transferStorm(t, rt, 10, 0)
	if err := tc.Crash(victim); err != nil {
		t.Fatal(err)
	}
	victimDown.Store(true)
	transferStorm(t, rt, 20, 1) // committed while the victim is down

	if compact {
		for _, id := range tc.Nodes()[:victim] {
			if err := tc.Replicas[id].WAL().Snapshot(); err != nil {
				t.Fatalf("compact node %d: %v", id, err)
			}
		}
	}

	// Restart from the same data dir on the same address, then catch up.
	// victimDown keeps the victim out of every quorum until it has.
	if err := tc.Restart(victim); err != nil {
		t.Fatal(err)
	}
	restarted := tc.Replicas[victim]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stats, err := qrdtm.CatchUp(ctx, tc.Transport, victim, tc.Nodes(), restarted)
	if err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	victimDown.Store(false)

	// The restarted replica must hold the full committed state and serve it
	// to the client transport: node 0 is the quorum-tree root, present in
	// every write quorum, so its store is the reference.
	assertBankConserved(t, restarted, "restarted victim")
	for i := 0; i < durableAccounts; i++ {
		id := proto.ObjectID(fmt.Sprintf("acct-%d", i))
		want, _ := tc.Replicas[0].Store().Get(id)
		resp, err := tc.Transport.Call(ctx, 0, victim, proto.DumpReq{Obj: id})
		if err != nil {
			t.Fatalf("%s: restarted victim unreachable: %v", id, err)
		}
		if got := resp.(proto.DumpRep); !got.OK || got.Copy.Version != want.Version || got.Copy.Val != want.Val {
			t.Fatalf("%s: restarted serves %+v, root has %+v", id, got, want)
		}
	}
	// And the cluster still works end-to-end with the victim back.
	transferStorm(t, rt, 5, 2)
	assertBankConserved(t, tc.Replicas[0], "root after recovery")
	return restarted, stats
}

func TestDurableCatchUpFromLogTail(t *testing.T) {
	rep, stats := runDurableRecovery(t, false)
	if stats.TailPeers != 3 || stats.FullResyncs != 0 || stats.SkippedPeers != 0 {
		t.Fatalf("expected pure log-tail catch-up, got %+v", stats)
	}
	if stats.RecordsApplied == 0 {
		t.Fatalf("no records applied: %+v", stats)
	}
	// Progress is durable: the cursors advanced past the peers' tails.
	for _, peer := range []proto.NodeID{0, 1, 2} {
		if rep.Cursor(peer) == 0 {
			t.Fatalf("cursor for peer %d not advanced", peer)
		}
	}
}

func TestDurableCatchUpFullResyncAfterCompaction(t *testing.T) {
	_, stats := runDurableRecovery(t, true)
	if stats.FullResyncs != 3 || stats.TailPeers != 0 || stats.SkippedPeers != 0 {
		t.Fatalf("expected full resync from every compacted peer, got %+v", stats)
	}
}
