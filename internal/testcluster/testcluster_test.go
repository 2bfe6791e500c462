package testcluster

import (
	"context"
	"net"
	"sync"
	"testing"

	"qrdtm/internal/proto"
)

func start(t *testing.T, o Options) *Cluster {
	t.Helper()
	c, err := Start(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// dump reads node id's committed copy of obj over the client transport.
func dump(t *testing.T, c *Cluster, id proto.NodeID, obj proto.ObjectID) proto.DumpRep {
	t.Helper()
	resp, err := c.Transport.Call(context.Background(), 0, id, proto.DumpReq{Obj: obj})
	if err != nil {
		t.Fatalf("dump %s from node %d: %v", obj, id, err)
	}
	return resp.(proto.DumpRep)
}

func TestConcurrentClustersDistinctPorts(t *testing.T) {
	const nodes = 3
	clusters := make([]*Cluster, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range clusters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clusters[i], errs[i] = Start(Options{Nodes: nodes})
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for i, c := range clusters {
		if errs[i] != nil {
			t.Fatalf("cluster %d: %v", i, errs[i])
		}
		t.Cleanup(c.Close)
		for _, addr := range c.addrs {
			if seen[addr] {
				t.Fatalf("address %s handed out twice", addr)
			}
			seen[addr] = true
		}
	}
	for i, c := range clusters {
		c.Load([]proto.ObjectCopy{{ID: "k", Version: 1, Val: proto.Int64(int64(i))}})
		for _, id := range c.Nodes() {
			if got := dump(t, c, id, "k"); !got.OK || got.Copy.Val != proto.Int64(int64(i)) {
				t.Fatalf("cluster %d node %d serves %+v", i, id, got)
			}
		}
	}
}

func TestCloseIdempotentFreesPorts(t *testing.T) {
	c, err := Start(Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(1); err != nil { // a down node's address must be freed too
		t.Fatal(err)
	}
	c.Close()
	c.Close()
	for id, addr := range c.addrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("node %d's address %s still bound after Close: %v", id, addr, err)
		}
		ln.Close()
	}
	if err := c.Restart(1); err == nil {
		t.Fatal("Restart after Close succeeded")
	}
}

func TestDurableCrashRestartRestoresFromWAL(t *testing.T) {
	c := start(t, Options{Nodes: 4, Dir: t.TempDir()})
	const victim = proto.NodeID(1)
	c.Load([]proto.ObjectCopy{{ID: "x", Version: 1, Val: proto.Int64(1)}})

	// Commit a new value of x on every node with a prepare/decide round.
	writes := []proto.ObjectCopy{{ID: "x", Version: 2, Val: proto.Int64(7)}}
	ctx := context.Background()
	for _, id := range c.Nodes() {
		rep, err := c.Transport.Call(ctx, 0, id, proto.PrepareReq{Txn: 1, Writes: writes})
		if err != nil || !rep.(proto.PrepareRep).OK {
			t.Fatalf("prepare on node %d: %+v, %v", id, rep, err)
		}
		if _, err := c.Transport.Call(ctx, 0, id, proto.DecideReq{Txn: 1, Commit: true, Writes: writes}); err != nil {
			t.Fatalf("decide on node %d: %v", id, err)
		}
	}
	want, _ := c.Replicas[victim].Store().Get("x")
	if want.Val != proto.Int64(7) {
		t.Fatalf("before the crash the victim holds %+v", want)
	}
	addr, before := c.addrs[victim], c.Replicas[victim]

	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transport.Call(ctx, 0, victim, proto.DumpReq{Obj: "x"}); err == nil {
		t.Fatal("crashed node still answers")
	}
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if c.Replicas[victim] == before {
		t.Fatal("durable restart kept the in-memory replica")
	}
	if c.addrs[victim] != addr {
		t.Fatalf("restarted on %s, want %s", c.addrs[victim], addr)
	}
	if got := dump(t, c, victim, "x"); !got.OK || got.Copy != want {
		t.Fatalf("restarted node serves %+v, want %+v", got, want)
	}
}

func TestShardedLoadOnlyOnOwners(t *testing.T) {
	m := proto.PartitionMap([]proto.NodeID{0, 1, 2, 3, 4, 5}, 2)
	c := start(t, Options{Nodes: 6, Map: m})

	var copies []proto.ObjectCopy
	for _, id := range []proto.ObjectID{"a", "b", "c", "d", "e", "f", "g", "h"} {
		copies = append(copies, proto.ObjectCopy{ID: id, Version: 1, Val: proto.Int64(1)})
	}
	c.Load(copies)
	placed := map[proto.ShardID]bool{}
	for _, cp := range copies {
		s := m.ShardFor(cp.ID)
		placed[s] = true
		for _, id := range c.Nodes() {
			_, has := c.Replicas[id].Store().Get(cp.ID)
			if owner := m.Member(s, id); has != owner {
				t.Fatalf("%s (shard %d) on node %d: held=%v, owner=%v", cp.ID, s, id, has, owner)
			}
		}
	}
	if len(placed) < 2 {
		t.Fatalf("objects landed in %d shard(s); the check needs both", len(placed))
	}
	for _, rep := range c.Replicas {
		if rep.ShardMap().Epoch != m.Epoch {
			t.Fatalf("node %d holds map epoch %d, want %d", rep.ID, rep.ShardMap().Epoch, m.Epoch)
		}
	}
}
