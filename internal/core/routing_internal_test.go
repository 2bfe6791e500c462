package core

import (
	"context"
	"slices"
	"testing"

	"qrdtm/internal/cluster"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
)

// TestUnshardedIsTheOneShardCase checks that an unsharded runtime is the
// one-shard case of the sharded one: a runtime built from Config.Quorums over
// a 13-node tree and one built from Config.Shards over a one-shard map of the
// same nodes resolve the same quorums and send the same messages for a
// transfer and for a read-only closed-nested transaction. Only the sharded
// runtime tags its spans and grows per-shard registry series.
func TestUnshardedIsTheOneShardCase(t *testing.T) {
	const nodes = 13
	all := make([]proto.NodeID, nodes)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	oneShard := proto.PartitionMap(all, 1)
	cases := []struct {
		name   string
		config func(*Config)
		smap   proto.ShardMap // installed on the replicas
		tagged bool
	}{
		{"quorums", func(c *Config) { c.Quorums = TreeQuorums{Tree: quorum.NewTree(nodes)} }, proto.ShardMap{}, false},
		{"shards", func(c *Config) {
			c.Shards = TreeShardQuorums{Map: func() (proto.ShardMap, error) { return oneShard, nil }}
		}, oneShard, true},
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
			cfg := Config{Node: 0, Transport: trans, Mode: Closed, Obs: reg}
			tc.config(&cfg)
			rt, err := NewRuntime(cfg)
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
	if len(got) != 2 {
		t.Fatal("a runtime failed; nothing to compare")
	}
	q, s := got[0], got[1]
	if !slices.Equal(q.route.read, s.route.read) || !slices.Equal(q.route.write, s.route.write) {
		t.Errorf("quorums differ: Config.Quorums read %v write %v, Config.Shards read %v write %v",
			q.route.read, q.route.write, s.route.read, s.route.write)
	}
	if q.transferMsgs != s.transferMsgs || q.readMsgs != s.readMsgs {
		t.Errorf("messages differ: Config.Quorums transfer %d read-only %d, Config.Shards transfer %d read-only %d",
			q.transferMsgs, q.readMsgs, s.transferMsgs, s.readMsgs)
	}
	if q.transferMsgs == 0 || q.readMsgs == 0 {
		t.Errorf("no messages counted (transfer %d, read-only %d)", q.transferMsgs, q.readMsgs)
	}
}
