package qrdtm_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm"
)

// shardCluster builds a sharded sim cluster preloaded with accts accounts of
// 100 units each.
func shardCluster(t *testing.T, nodes, shards, accts int, mode qrdtm.Mode, reg *qrdtm.Registry) (*qrdtm.Cluster, []qrdtm.ObjectID) {
	t.Helper()
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: nodes, Shards: shards, Mode: mode, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	kv := make(map[qrdtm.ObjectID]qrdtm.Value, accts)
	ids := make([]qrdtm.ObjectID, accts)
	for i := range ids {
		ids[i] = qrdtm.ObjectID(fmt.Sprintf("acct/%03d", i))
		kv[ids[i]] = qrdtm.Int64(100)
	}
	c.LoadKV(kv)
	return c, ids
}

// checkConservation asserts the committed account balances still sum to the
// loaded total.
func checkConservation(t *testing.T, c *qrdtm.Cluster, ids []qrdtm.ObjectID) {
	t.Helper()
	total := int64(0)
	for _, id := range ids {
		cp, err := c.ReadCommitted(context.Background(), id)
		if err != nil {
			t.Fatalf("read %s: %v", id, err)
		}
		if cp.Val == nil {
			t.Fatalf("account %s vanished", id)
		}
		total += int64(cp.Val.(qrdtm.Int64))
	}
	if want := int64(len(ids)) * 100; total != want {
		t.Fatalf("conservation violated: total = %d, want %d", total, want)
	}
}

// transfer moves 1 unit between two accounts inside a transaction.
func transfer(tx *qrdtm.Txn, from, to qrdtm.ObjectID) error {
	fv, err := tx.Read(from)
	if err != nil {
		return err
	}
	tv, err := tx.Read(to)
	if err != nil {
		return err
	}
	if err := tx.Write(from, qrdtm.Int64(fv.(qrdtm.Int64)-1)); err != nil {
		return err
	}
	return tx.Write(to, qrdtm.Int64(tv.(qrdtm.Int64)+1))
}

func TestShardedClusterBasics(t *testing.T) {
	c, _ := shardCluster(t, 13, 4, 8, qrdtm.Closed, nil)
	m := c.ShardMap()
	if len(m.Shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(m.Shards))
	}
	// Every node belongs to exactly one shard.
	seen := make(map[qrdtm.NodeID]int)
	for _, s := range m.Shards {
		if len(s.Members) == 0 {
			t.Fatalf("shard %d has no members", s.ID)
		}
		for _, n := range s.Members {
			seen[n]++
		}
	}
	if len(seen) != 13 {
		t.Fatalf("members cover %d nodes, want 13", len(seen))
	}
	for n, k := range seen {
		if k != 1 {
			t.Fatalf("node %v in %d shards", n, k)
		}
	}
}

// TestShardedCommits drives concurrent transfers — intra- and cross-shard —
// over a sharded cluster and checks conservation.
func TestShardedCommits(t *testing.T) {
	for _, mode := range []qrdtm.Mode{qrdtm.Flat, qrdtm.Closed} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			c, ids := shardCluster(t, 13, 4, 16, mode, nil)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			var commits atomic.Int64
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rt := c.Runtime(qrdtm.NodeID(w * 3))
					for i := 0; i < 25; i++ {
						from := ids[(w*25+i)%len(ids)]
						to := ids[(w*25+i*7+1)%len(ids)]
						if from == to {
							continue
						}
						err := rt.Atomic(ctx, func(tx *qrdtm.Txn) error {
							return transfer(tx, from, to)
						})
						if err != nil {
							t.Errorf("worker %d transfer %s->%s: %v", w, from, to, err)
							return
						}
						commits.Add(1)
					}
				}(w)
			}
			wg.Wait()
			if commits.Load() == 0 {
				t.Fatal("no transfers committed")
			}
			checkConservation(t, c, ids)
		})
	}
}

// TestShardedReadOnlyCrossShard checks that a read-only transaction spanning
// shards still commits (it must take the quorum prepare path, not the local
// commit shortcut, to stay serializable).
func TestShardedReadOnlyCrossShard(t *testing.T) {
	c, ids := shardCluster(t, 13, 4, 16, qrdtm.Closed, nil)
	ctx := context.Background()
	err := c.Runtime(0).Atomic(ctx, func(tx *qrdtm.Txn) error {
		sum := int64(0)
		for _, id := range ids {
			v, err := tx.Read(id)
			if err != nil {
				return err
			}
			sum += int64(v.(qrdtm.Int64))
		}
		if want := int64(len(ids)) * 100; sum != want {
			return fmt.Errorf("snapshot sum = %d, want %d", sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedOpenReleasesLocksOffShardZero checks that an open-nested root
// releases an abstract lock on the write quorum of the shard the lock name
// routes to, not on shard 0's: the prepare granted it there, so a release
// sent elsewhere leaks the lock and every later root needing it spins until
// its retry budget runs out.
func TestShardedOpenReleasesLocksOffShardZero(t *testing.T) {
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: 13, Shards: 2, Mode: qrdtm.Closed, MaxRetries: 50})
	if err != nil {
		t.Fatal(err)
	}
	m := c.ShardMap()
	onShard1 := func(prefix string) string {
		for i := 0; ; i++ {
			if name := fmt.Sprintf("%s/%d", prefix, i); m.ShardFor(qrdtm.ObjectID(name)) == 1 {
				return name
			}
		}
	}
	lock, obj := onShard1("lock"), qrdtm.ObjectID(onShard1("obj"))
	c.LoadKV(map[qrdtm.ObjectID]qrdtm.Value{obj: qrdtm.Int64(0)})
	incr := func(tx *qrdtm.Txn) error {
		return tx.Open([]string{lock}, func(ot *qrdtm.Txn) error {
			v, err := ot.Read(obj)
			if err != nil {
				return err
			}
			return ot.Write(obj, v.(qrdtm.Int64)+1)
		}, nil)
	}
	ctx := context.Background()
	if err := c.Runtime(0).Atomic(ctx, incr); err != nil {
		t.Fatal(err)
	}
	for n, r := range c.Replicas {
		if h := r.Store().AbstractLockHolder(lock); h != 0 {
			t.Errorf("replica %d still records %v as the holder of %q", n, h, lock)
		}
	}
	// A second root needing the same lock must get it.
	if err := c.Runtime(3).Atomic(ctx, incr); err != nil {
		t.Fatalf("second root: %v", err)
	}
	if cp, err := c.ReadCommitted(ctx, obj); err != nil || cp.Val != qrdtm.Int64(2) {
		t.Fatalf("%s = %v (err %v), want 2", obj, cp.Val, err)
	}
}

// TestAddShardMigration reconfigures a live cluster — carving a new shard
// out of existing members' slots while transfer traffic flows — and checks
// that no money is lost, the map advanced two epochs, and (traced) the
// cross-shard atomicity and protocol invariants hold.
func TestAddShardMigration(t *testing.T) {
	reg := qrdtm.NewRegistry().WithSpans(qrdtm.NewSpanBuffer(1 << 15))
	c, ids := shardCluster(t, 13, 2, 16, qrdtm.Closed, reg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	before := c.ShardMap()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := c.Runtime(qrdtm.NodeID(w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from := ids[(w*31+i)%len(ids)]
				to := ids[(w*31+i*3+1)%len(ids)]
				if from == to {
					continue
				}
				if err := rt.Atomic(ctx, func(tx *qrdtm.Txn) error {
					return transfer(tx, from, to)
				}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				commits.Add(1)
			}
		}(w)
	}

	// Let traffic build, then carve shard 2 out of nodes 10..12 (currently
	// split between shards 0 and 1) and hand it a third of the slots.
	time.Sleep(50 * time.Millisecond)
	var slots []int
	for s := range before.Slots {
		if s%3 == 0 {
			slots = append(slots, s)
		}
	}
	newID := qrdtm.ShardID(len(before.Shards))
	if err := c.AddShard(ctx, newID, []qrdtm.NodeID{10, 11, 12}, slots); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	after := c.ShardMap()
	if after.Epoch != before.Epoch+2 {
		t.Fatalf("epoch = %d, want %d", after.Epoch, before.Epoch+2)
	}
	if len(after.Shards) != len(before.Shards)+1 {
		t.Fatalf("shards = %d, want %d", len(after.Shards), len(before.Shards)+1)
	}
	for _, s := range slots {
		if after.Slots[s].Owner != newID {
			t.Fatalf("slot %d owner = %d, want %d", s, after.Slots[s].Owner, newID)
		}
	}
	if commits.Load() == 0 {
		t.Fatal("no transfers committed across the migration")
	}
	checkConservation(t, c, ids)

	// The traced run must satisfy every protocol invariant, including
	// cross-shard 2PC atomicity, across the live migration.
	spans := qrdtm.MergeSpans(reg.Spans().Spans())
	res := qrdtm.CheckTrace(spans)
	if res.Traces == 0 {
		t.Fatal("no complete traces collected")
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}
