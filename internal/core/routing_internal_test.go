package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"qrdtm/internal/cluster"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
)

// TestUnshardedIsTheOneShardCase checks that an unsharded runtime is the
// one-shard case of the sharded one: runtimes whose TreeQuorums name only a
// 13-node tree, a one-shard map of the same nodes, or a map that answers the
// zero map beside the tree resolve the same quorums and send the same
// messages for a transfer and for a read-only closed-nested transaction.
// Only the one-shard runtime tags its spans and grows per-shard registry
// series.
func TestUnshardedIsTheOneShardCase(t *testing.T) {
	const nodes = 13
	all := make([]proto.NodeID, nodes)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	oneShard := proto.PartitionMap(all, 1)
	cases := []struct {
		name    string
		quorums TreeQuorums
		smap    proto.ShardMap // installed on the replicas
		tagged  bool
	}{
		{"quorums", TreeQuorums{Tree: quorum.NewTree(nodes)}, proto.ShardMap{}, false},
		{"shards", TreeQuorums{Map: func() (proto.ShardMap, error) { return oneShard, nil }}, oneShard, true},
		{"zeromap", TreeQuorums{Tree: quorum.NewTree(nodes), Map: func() (proto.ShardMap, error) { return proto.ShardMap{}, nil }},
			proto.ShardMap{}, false},
	}
	type outcome struct {
		route                  route
		transferMsgs, readMsgs uint64
	}
	var got []outcome
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trans := cluster.NewMemTransport()
			seed := []proto.ObjectCopy{{ID: "a", Version: 1, Val: proto.Int64(100)}, {ID: "b", Version: 1, Val: proto.Int64(100)}}
			for _, n := range all {
				r := server.New(n)
				r.SetShardMap(tc.smap)
				r.Store().Load(seed)
				trans.Register(n, r.Handle)
			}
			reg := obs.NewRegistry().WithSpans(obs.NewSpanBuffer(1 << 10))
			rt, err := NewRuntime(Config{Node: 0, Transport: trans, Quorums: tc.quorums, Mode: Closed, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			run := func(body func(*Txn) error) uint64 {
				t.Helper()
				trans.ResetStats()
				if err := rt.Atomic(ctx, body); err != nil {
					t.Fatal(err)
				}
				return trans.Stats().Messages
			}
			transfer := run(func(tx *Txn) error {
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
			})
			read := run(func(tx *Txn) error {
				return tx.Nested(func(ct *Txn) error {
					if _, err := ct.Read("a"); err != nil {
						return err
					}
					_, err := ct.Read("b")
					return err
				})
			})
			if n := rt.Metrics().LocalCommits.Load(); n != 1 {
				t.Errorf("local commits = %d, want 1 (the read-only transaction)", n)
			}
			tagged := slices.ContainsFunc(reg.Spans().Spans(), func(s proto.Span) bool { return s.ShardID() != proto.NoShard })
			if tagged != tc.tagged {
				t.Errorf("some span carries a shard tag = %v, want %v", tagged, tc.tagged)
			}
			if series := len(reg.Snapshot().Shards) > 0; series != tc.tagged {
				t.Errorf("registry has shard series = %v, want %v", series, tc.tagged)
			}
			got = append(got, outcome{rt.route(0), transfer, read})
		})
	}
	if len(got) != len(cases) {
		t.Fatal("a runtime failed; nothing to compare")
	}
	q := got[0]
	if q.transferMsgs == 0 || q.readMsgs == 0 {
		t.Errorf("no messages counted (transfer %d, read-only %d)", q.transferMsgs, q.readMsgs)
	}
	for i, s := range got[1:] {
		name := cases[i+1].name
		if !slices.Equal(q.route.read, s.route.read) || !slices.Equal(q.route.write, s.route.write) {
			t.Errorf("quorums differ: tree read %v write %v, %s read %v write %v",
				q.route.read, q.route.write, name, s.route.read, s.route.write)
		}
		if q.transferMsgs != s.transferMsgs || q.readMsgs != s.readMsgs {
			t.Errorf("messages differ: tree transfer %d read-only %d, %s transfer %d read-only %d",
				q.transferMsgs, q.readMsgs, name, s.transferMsgs, s.readMsgs)
		}
	}
}

// TestTreeQuorumsResolve pins the one resolver: how Tree, Map, Alive and
// Spread turn into a runtime's routing table.
func TestTreeQuorumsResolve(t *testing.T) {
	const nodes = 13
	tree := quorum.NewTree(nodes)
	all := make([]proto.NodeID, nodes)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	oneShard := proto.PartitionMap(all, 1)
	mapOf := func(m proto.ShardMap, err error) func() (proto.ShardMap, error) {
		return func() (proto.ShardMap, error) { return m, err }
	}
	read, err := tree.ReadQuorum(quorum.AllAlive)
	if err != nil {
		t.Fatal(err)
	}
	write, err := tree.WriteQuorum(quorum.AllAlive)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		tq      TreeQuorums
		wantErr bool
		smap    proto.ShardMap
		tag     proto.ShardID
	}{
		{"tree only", TreeQuorums{Tree: tree}, false, proto.ShardMap{}, proto.NoShard},
		{"zero map with tree", TreeQuorums{Tree: tree, Map: mapOf(proto.ShardMap{}, nil)}, false, proto.ShardMap{}, proto.NoShard},
		{"one-shard map", TreeQuorums{Map: mapOf(oneShard, nil)}, false, oneShard, 0},
		{"map error", TreeQuorums{Tree: tree, Map: mapOf(proto.ShardMap{}, errors.New("unreachable"))}, true, proto.ShardMap{}, 0},
		{"zero map without tree", TreeQuorums{Map: mapOf(proto.ShardMap{}, nil)}, true, proto.ShardMap{}, 0},
		{"shard without members", TreeQuorums{Map: mapOf(proto.ShardMap{Epoch: 1, Shards: []proto.ShardSpec{{ID: 0}}}, nil)}, true, proto.ShardMap{}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			table, err := tc.tq.resolve(0)
			if tc.wantErr {
				if !errors.Is(err, ErrUnavailable) {
					t.Fatalf("err = %v, want ErrUnavailable", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if table.smap.Epoch != tc.smap.Epoch || len(table.smap.Shards) != len(tc.smap.Shards) {
				t.Errorf("map = epoch %d with %d shards, want epoch %d with %d", table.smap.Epoch, len(table.smap.Shards), tc.smap.Epoch, len(tc.smap.Shards))
			}
			if len(table.shards) != 1 {
				t.Fatalf("%d routes, want 1", len(table.shards))
			}
			r := table.shards[0]
			if !slices.Equal(r.read, read) || !slices.Equal(r.write, write) || r.tag != tc.tag {
				t.Errorf("route = read %v write %v tag %d, want read %v write %v tag %d", r.read, r.write, r.tag, read, write, tc.tag)
			}
		})
	}

	t.Run("spread tree", func(t *testing.T) {
		big := quorum.NewTree(28)
		alive := func(n proto.NodeID) bool { return n > 2 }
		canonW, err := big.WriteQuorum(alive)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[string]bool{}
		for n := proto.NodeID(0); n < 28; n++ {
			table, err := TreeQuorums{Tree: big, Alive: alive, Spread: true}.resolve(n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := big.ReadQuorumSpread(alive, int(n))
			if err != nil {
				t.Fatal(err)
			}
			r := table.shards[0]
			if !slices.Equal(r.read, want) {
				t.Errorf("node %d read = %v, want ReadQuorumSpread's %v", n, r.read, want)
			}
			if !slices.Equal(r.write, canonW) {
				t.Errorf("node %d write = %v, want the canonical %v", n, r.write, canonW)
			}
			distinct[fmt.Sprint(r.read)] = true
		}
		if len(distinct) < 2 {
			t.Errorf("every node reads from %v: nothing spread", distinct)
		}
	})

	t.Run("spread shards", func(t *testing.T) {
		m := proto.PartitionMap(all, 2)
		alive := func(n proto.NodeID) bool { return n != m.Shards[0].Members[0] && n != m.Shards[1].Members[0] }
		distinct := map[string]bool{}
		for _, n := range all {
			table, err := TreeQuorums{Map: mapOf(m, nil), Alive: alive, Spread: true}.resolve(n)
			if err != nil {
				t.Fatal(err)
			}
			for i, spec := range m.Shards {
				g := quorum.NewGroup(spec.Members)
				wantR, err := g.ReadQuorumSpread(alive, int(n))
				if err != nil {
					t.Fatal(err)
				}
				wantW, err := g.WriteQuorum(alive)
				if err != nil {
					t.Fatal(err)
				}
				r := table.shards[i]
				if !slices.Equal(r.read, wantR) || !slices.Equal(r.write, wantW) || r.tag != spec.ID {
					t.Errorf("node %d shard %d = read %v write %v tag %d, want read %v write %v tag %d",
						n, i, r.read, r.write, r.tag, wantR, wantW, spec.ID)
				}
				for _, id := range r.read {
					if !slices.Contains(spec.Members, id) {
						t.Errorf("node %d shard %d reads from %v, not a member", n, i, id)
					}
				}
				if i == 1 {
					distinct[fmt.Sprint(r.read)] = true
				}
			}
		}
		if len(distinct) < 2 {
			t.Errorf("shard 1 read quorums %v: nothing spread", distinct)
		}
	})
}
