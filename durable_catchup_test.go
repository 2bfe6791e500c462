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
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
	"qrdtm/internal/wal"
)

// durableNode is one WAL-backed replica plus its listener and data dir.
type durableNode struct {
	dir string
	rep *server.Replica
	srv *cluster.TCPServer
}

func startDurableNode(t *testing.T, id proto.NodeID, dir string) *durableNode {
	t.Helper()
	w, res, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("node %d: open wal: %v", id, err)
	}
	rep := server.New(id).WithWAL(w)
	rep.Restore(res)
	srv, err := cluster.ListenTCP(id, "127.0.0.1:0", rep.Handle)
	if err != nil {
		t.Fatalf("node %d: listen: %v", id, err)
	}
	return &durableNode{dir: dir, rep: rep, srv: srv}
}

func (n *durableNode) crash(t *testing.T) {
	t.Helper()
	_ = n.srv.Close()
	if err := n.rep.WAL().Close(); err != nil {
		t.Fatal(err)
	}
}

const durableAccounts = 8

func loadBank(t *testing.T, rep *server.Replica) {
	t.Helper()
	var objs []proto.ObjectCopy
	for i := 0; i < durableAccounts; i++ {
		objs = append(objs, proto.ObjectCopy{
			ID: proto.ObjectID(fmt.Sprintf("acct-%d", i)), Version: 1, Val: proto.Int64(100),
		})
	}
	rep.Handle(-1, proto.LoadReq{Objects: objs}) // via Handle so the load is logged
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
	const n = 4
	const victim = proto.NodeID(3)
	base := t.TempDir()
	tree := quorum.NewTree(n)
	var victimDown atomic.Bool

	nodes := make([]*durableNode, n)
	peers := make(map[proto.NodeID]string, n)
	for i := 0; i < n; i++ {
		nodes[i] = startDurableNode(t, proto.NodeID(i), filepath.Join(base, fmt.Sprintf("node-%d", i)))
		peers[proto.NodeID(i)] = nodes[i].srv.Addr()
		loadBank(t, nodes[i].rep)
	}
	trans := cluster.NewTCPTransport(peers)
	t.Cleanup(func() {
		trans.Close()
		for _, nd := range nodes {
			_ = nd.srv.Close()
			if w := nd.rep.WAL(); w != nil {
				_ = w.Close()
			}
		}
	})

	rt, err := core.NewRuntime(core.Config{
		Node:      proto.NodeID(0),
		Transport: trans,
		Quorums: core.TreeQuorums{
			Tree:  tree,
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
	nodes[victim].crash(t)
	victimDown.Store(true)
	transferStorm(t, rt, 20, 1) // committed while the victim is down

	if compact {
		for i := 0; i < n-1; i++ {
			if err := nodes[i].rep.WAL().Snapshot(); err != nil {
				t.Fatalf("compact node %d: %v", i, err)
			}
		}
	}

	// Restart from the same data dir and catch up before serving.
	restarted := startDurableNode(t, victim, nodes[victim].dir)
	t.Cleanup(func() {
		_ = restarted.srv.Close()
		_ = restarted.rep.WAL().Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ids := make([]proto.NodeID, n)
	for i := range ids {
		ids[i] = proto.NodeID(i)
	}
	stats, err := qrdtm.CatchUp(ctx, trans, victim, ids, restarted.rep)
	if err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	victimDown.Store(false)

	// The restarted replica must hold the full committed state: node 0 is
	// the quorum-tree root, present in every write quorum, so its store is
	// the reference.
	assertBankConserved(t, restarted.rep, "restarted victim")
	for i := 0; i < durableAccounts; i++ {
		id := proto.ObjectID(fmt.Sprintf("acct-%d", i))
		want, _ := nodes[0].rep.Store().Get(id)
		got, ok := restarted.rep.Store().Get(id)
		if !ok || got.Version != want.Version || got.Val != want.Val {
			t.Fatalf("%s: restarted has %+v, root has %+v", id, got, want)
		}
	}
	// And the cluster still works end-to-end with the victim back.
	transferStorm(t, rt, 5, 2)
	assertBankConserved(t, nodes[0].rep, "root after recovery")
	return restarted.rep, stats
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
