package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"qrdtm/internal/bench"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/proto"
	"qrdtm/internal/server"
)

// chainIDs names the nodes of a test chain: head "h", nodes n1..nN.
func chainIDs(n int) []proto.ObjectID {
	out := make([]proto.ObjectID, n)
	for i := range out {
		out[i] = proto.ObjectID(fmt.Sprintf("n%d", i+1))
	}
	return out
}

// chainCopies builds head "h" -> nodes[0] -> ... -> nodes[len-1], node i
// holding key i+1, all at version 1.
func chainCopies(nodes []proto.ObjectID) []proto.ObjectCopy {
	out := []proto.ObjectCopy{{ID: "h", Version: 1, Val: bench.ChainHead{First: nodes[0]}}}
	for i, id := range nodes {
		var next proto.ObjectID
		if i+1 < len(nodes) {
			next = nodes[i+1]
		}
		out = append(out, proto.ObjectCopy{ID: id, Version: 1, Val: bench.ChainNode{Key: int64(i + 1), Next: next}})
	}
	return out
}

func loadAll(replicas []*server.Replica, copies []proto.ObjectCopy) {
	for _, r := range replicas {
		r.Store().Load(copies)
	}
}

// readNode reads one chain node inside tx.
func readNode(t *testing.T, tx *core.Txn, id proto.ObjectID) bench.ChainNode {
	t.Helper()
	v, err := tx.Read(id)
	if err != nil {
		t.Fatalf("Read(%v): %v", id, err)
	}
	n, ok := v.(bench.ChainNode)
	if !ok {
		t.Fatalf("Read(%v) = %T, want a chain node", id, v)
	}
	return n
}

// walkChain reads head "h" and follows the chain to its end, returning the
// keys seen.
func walkChain(t *testing.T, tx *core.Txn) []int64 {
	t.Helper()
	v, err := tx.Read("h")
	if err != nil {
		t.Fatalf("Read(h): %v", err)
	}
	var keys []int64
	for cur := v.(bench.ChainHead).First; cur != ""; {
		n := readNode(t, tx, cur)
		keys = append(keys, n.Key)
		cur = n.Next
	}
	return keys
}

// TestPrefetchChainWalkOneRound: the read of a chain's head ships the whole
// chain, so walking ten nodes costs one read round and the read-only
// transaction then commits locally.
func TestPrefetchChainWalkOneRound(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	loadAll(tc.replicas, chainCopies(chainIDs(10)))
	rt := tc.runtime(3)
	before := tc.metrics.Snapshot()
	mustAtomic(t, rt, func(tx *core.Txn) error {
		if keys := walkChain(t, tx); len(keys) != 10 || keys[9] != 10 {
			t.Fatalf("walk saw keys %v", keys)
		}
		return nil
	})
	d := tc.metrics.Snapshot().Sub(before)
	if d.ReadRequests != 1 || d.PrefetchHits != 10 {
		t.Fatalf("read rounds %d, prefetch hits %d; want 1 and 10", d.ReadRequests, d.PrefetchHits)
	}
	if d.LocalCommits != 1 || d.CommitRequests != 0 {
		t.Fatalf("local commits %d, commit requests %d; want a local commit", d.LocalCommits, d.CommitRequests)
	}
}

// TestPrefetchDroppedByLaterRound: a copy prefetched in round 1 must not
// outlive the next round. Another client commits node 5 after round 1; the
// walker's next remote read drops the cache, so its read of node 5 fetches
// the new version instead of the stale prefetched one.
func TestPrefetchDroppedByLaterRound(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	nodes := chainIDs(10)
	loadAll(tc.replicas, chainCopies(nodes))
	tc.load(map[proto.ObjectID]int64{"aux": 0})
	walker, other := tc.runtime(3), tc.runtime(5)
	var interfere sync.Once
	mustAtomic(t, walker, func(tx *core.Txn) error {
		if _, err := tx.Read("h"); err != nil {
			return err
		}
		for _, id := range nodes[:4] {
			readNode(t, tx, id)
		}
		interfere.Do(func() {
			mustAtomic(t, other, func(otx *core.Txn) error {
				return otx.Write(nodes[4], bench.ChainNode{Key: 50, Next: nodes[5]})
			})
		})
		readInt(t, tx, "aux") // a remote read: the cache must not survive it
		if n := readNode(t, tx, nodes[4]); n.Key != 50 {
			t.Fatalf("node 5 key = %d, want 50 (a stale prefetched copy survived a later round)", n.Key)
		}
		return nil
	})
}

// TestPrefetchDroppedByOpen: a parent prefetches X, then an open child
// writes X and commits on its own. The parent's next read of X must return
// the child's value, not the copy prefetched before the child ran.
func TestPrefetchDroppedByOpen(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	nodes := chainIDs(2)
	loadAll(tc.replicas, chainCopies(nodes))
	rt := tc.runtime(3)
	mustAtomic(t, rt, func(tx *core.Txn) error {
		if _, err := tx.Read("h"); err != nil { // prefetches n1, n2
			return err
		}
		if err := tx.Open(nil, func(ot *core.Txn) error {
			return ot.Write(nodes[0], bench.ChainNode{Key: 100, Next: nodes[1]})
		}, nil); err != nil {
			return err
		}
		if n := readNode(t, tx, nodes[0]); n.Key != 100 {
			t.Fatalf("parent read key %d, want the open child's 100", n.Key)
		}
		return nil
	})
}

// TestPrefetchNeedsEveryQuorumMember: with a two-member read quorum where
// one member lacks n2, n2 is not taken from the cache (only one member
// shipped it) and costs its own round; so does n3, which the lacking
// member's walk never reached.
func TestPrefetchNeedsEveryQuorumMember(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	tc.trans.Fail(0) // the intact tree's read quorum is the root alone
	rq, err := tc.tree.ReadQuorum(func(n proto.NodeID) bool { return !tc.trans.Down(n) })
	if err != nil || len(rq) < 2 {
		t.Fatalf("read quorum %v (%v), want at least two members", rq, err)
	}
	nodes := chainIDs(3)
	copies := chainCopies(nodes)
	for _, r := range tc.replicas {
		if r.ID == rq[1] {
			r.Store().Load(copies[:2]) // h and n1, no n2 or n3
		} else {
			r.Store().Load(copies)
		}
	}
	rt := tc.runtime(3)
	before := tc.metrics.Snapshot()
	mustAtomic(t, rt, func(tx *core.Txn) error {
		if keys := walkChain(t, tx); len(keys) != 3 || keys[2] != 3 {
			t.Fatalf("walk saw keys %v", keys)
		}
		return nil
	})
	d := tc.metrics.Snapshot().Sub(before)
	if d.ReadRequests != 3 || d.PrefetchHits != 1 {
		t.Fatalf("read rounds %d, prefetch hits %d; want 3 and 1 (only n1 was shipped by every member)",
			d.ReadRequests, d.PrefetchHits)
	}
}

// TestPrefetchTakesHighestVersion: when one read-quorum member holds an
// older version of a linked object (it missed a write quorum), the cache
// keeps the highest version any member shipped, as for a requested object.
func TestPrefetchTakesHighestVersion(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	tc.trans.Fail(0)
	rq, err := tc.tree.ReadQuorum(func(n proto.NodeID) bool { return !tc.trans.Down(n) })
	if err != nil || len(rq) < 2 {
		t.Fatalf("read quorum %v (%v), want at least two members", rq, err)
	}
	nodes := chainIDs(1)
	fresh := chainCopies(nodes)
	fresh[1].Version, fresh[1].Val = 2, bench.ChainNode{Key: 20}
	stale := chainCopies(nodes)
	rt := tc.runtime(3)
	for _, lagging := range rq { // whichever member replies first must not win
		for _, r := range tc.replicas {
			if r.ID == lagging {
				r.Store().Load(stale)
			} else {
				r.Store().Load(fresh)
			}
		}
		before := tc.metrics.Snapshot()
		mustAtomic(t, rt, func(tx *core.Txn) error {
			if keys := walkChain(t, tx); len(keys) != 1 || keys[0] != 20 {
				t.Fatalf("lagging member %v: walk saw keys %v, want [20]", lagging, keys)
			}
			return nil
		})
		if d := tc.metrics.Snapshot().Sub(before); d.ReadRequests != 1 || d.PrefetchHits != 1 {
			t.Fatalf("read rounds %d, prefetch hits %d; want 1 and 1", d.ReadRequests, d.PrefetchHits)
		}
	}
}

// prefetchSpy records the ids replicas ship in batched read replies and, when
// inject is set, appends a forged prefetched copy to every OK reply — what a
// replica serving under a stale shard map could send.
type prefetchSpy struct {
	inner  cluster.Transport
	inject *proto.ObjectCopy

	mu      sync.Mutex
	shipped []proto.ObjectID
}

func (s *prefetchSpy) Call(ctx context.Context, from, to proto.NodeID, req any) (any, error) {
	resp, err := s.inner.Call(ctx, from, to, req)
	if rr, ok := resp.(proto.BatchReadRep); ok && err == nil {
		s.mu.Lock()
		for _, c := range rr.Prefetch {
			s.shipped = append(s.shipped, c.ID)
		}
		s.mu.Unlock()
		if s.inject != nil && rr.OK {
			rr.Prefetch = append(rr.Prefetch, *s.inject)
			resp = rr
		}
	}
	return resp, err
}

// TestPrefetchStaysInShard: on a sharded runtime, a link into another shard
// is neither shipped (the replicas know the foreign object but do not own
// it) nor used from the cache when a replica ships it anyway.
func TestPrefetchStaysInShard(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	all := make([]proto.NodeID, 13)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	m := proto.PartitionMap(all, 2)
	for _, r := range tc.replicas {
		r.SetShardMap(m)
	}
	// h -> n1 in h's shard, then n2 in the other shard.
	home := m.ShardFor("h")
	var local, foreign proto.ObjectID
	for i := 0; local == "" || foreign == ""; i++ {
		id := proto.ObjectID(fmt.Sprintf("s%d", i))
		if m.ShardFor(id) == home {
			local = id
		} else {
			foreign = id
		}
	}
	loadAll(tc.replicas, chainCopies([]proto.ObjectID{local, foreign}))
	forged := proto.ObjectCopy{ID: foreign, Version: 99, Val: bench.ChainNode{Key: -1}}
	spy := &prefetchSpy{inner: tc.trans, inject: &forged}
	rt, err := core.NewRuntime(core.Config{
		Node:      3,
		Transport: spy,
		Shards:    core.TreeShardQuorums{Map: func() (proto.ShardMap, error) { return m, nil }},
		Mode:      core.Closed,
		Metrics:   tc.metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := tc.metrics.Snapshot()
	mustAtomic(t, rt, func(tx *core.Txn) error {
		if keys := walkChain(t, tx); len(keys) != 2 || keys[1] != 2 {
			t.Fatalf("walk saw keys %v, want [1 2] (a forged cross-shard copy was used)", keys)
		}
		return nil
	})
	for _, id := range spy.shipped {
		if id == foreign {
			t.Fatalf("a replica of shard %d shipped %v, homed on shard %d", home, id, m.ShardFor(id))
		}
	}
	if d := tc.metrics.Snapshot().Sub(before); d.ReadRequests != 2 || d.PrefetchHits != 1 {
		t.Fatalf("read rounds %d, prefetch hits %d; want 2 and 1", d.ReadRequests, d.PrefetchHits)
	}
}

// TestPrefetchedCopyValidatedAndRouted: a copy taken from the cache joins the
// footprint like a fetched one. When another client overwrites it, the
// child's next round denies, the abort routes to the child that used the
// copy (a partial abort, not a root abort), and the retry sees the new value.
func TestPrefetchedCopyValidatedAndRouted(t *testing.T) {
	tc := newTestCluster(t, 13, core.Closed)
	nodes := chainIDs(2)
	loadAll(tc.replicas, chainCopies(nodes))
	tc.load(map[proto.ObjectID]int64{"aux": 0})
	rt, other := tc.runtime(3), tc.runtime(5)
	before := tc.metrics.Snapshot()
	var interfere sync.Once
	var seen int64
	mustAtomic(t, rt, func(tx *core.Txn) error {
		return tx.Nested(func(ct *core.Txn) error {
			if _, err := ct.Read("h"); err != nil {
				return err
			}
			seen = readNode(t, ct, nodes[0]).Key // from the cache
			interfere.Do(func() {
				mustAtomic(t, other, func(otx *core.Txn) error {
					return otx.Write(nodes[0], bench.ChainNode{Key: 10, Next: nodes[1]})
				})
			})
			readInt(t, ct, "aux") // validates the footprint, cached copy included
			return nil
		})
	})
	if seen != 10 {
		t.Fatalf("committed having seen n1 key %d, want 10 (the stale cached copy was never validated)", seen)
	}
	if d := tc.metrics.Snapshot().Sub(before); d.CTAborts == 0 || d.RootAborts != 0 {
		t.Fatalf("CT aborts %d, root aborts %d; want a partial abort of the child only", d.CTAborts, d.RootAborts)
	}
}
