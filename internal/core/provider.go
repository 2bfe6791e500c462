package core

import (
	"fmt"

	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
)

// TreeQuorums is how a runtime learns its routes: the ternary tree quorum
// system (Agrawal & El Abbadi), one independent tree per quorum group.
//
// Map, when set, supplies the placement: a partitioning map gives every
// shard its own group over its Members (tree order), so the intersection
// property — and with it 1-copy equivalence — holds within each shard while
// the shards stay independent. The sim cluster closes over its in-memory
// map, TCP clients over FetchShardMap. A nil Map, or one that returns the
// zero map, routes the whole object space through Tree as one untagged
// group. Alive reports node liveness (nil means all alive).
//
// Spread gives each node the failure-adaptive read quorum
// (ReadQuorumSpread keyed by the node id): canonical while no failure
// forces delegation, spread across the subtree replicas once one does — the
// load-balancing effect behind the throughput rise for the first few
// failures in the paper's Figure 10. Write quorums are always canonical:
// their pairwise intersection serializes conflicting commits, so every node
// using the same one keeps conflict detection as early as possible.
type TreeQuorums struct {
	Tree   *quorum.Tree
	Map    func() (proto.ShardMap, error)
	Alive  quorum.Alive
	Spread bool
}

// resolve returns node's routing state: the placement map (zero unless Map
// partitions the object space) and one route per shard, indexed by shard id.
func (t TreeQuorums) resolve(node proto.NodeID) (*routeTable, error) {
	var m proto.ShardMap
	if t.Map != nil {
		var err error
		if m, err = t.Map(); err != nil {
			return nil, fmt.Errorf("%w: shard map: %v", ErrUnavailable, err)
		}
	}
	// Shard ids are their index in m.Shards (see ShardMap.Shard). The zero
	// map's one group, over every node, is proto.NoShard: its observations
	// stay untagged.
	specs := m.Shards
	if !m.Sharded() {
		if t.Tree == nil {
			return nil, fmt.Errorf("%w: no shard map and no tree", ErrUnavailable)
		}
		// A group over every node yields exactly the tree's quorums.
		all := make([]proto.NodeID, t.Tree.Len())
		for i := range all {
			all[i] = proto.NodeID(i)
		}
		m, specs = proto.ShardMap{}, []proto.ShardSpec{{ID: proto.NoShard, Members: all}}
	}
	routes := make([]route, len(specs))
	for i, spec := range specs {
		if len(spec.Members) == 0 {
			return nil, fmt.Errorf("%w: shard %d has no members", ErrUnavailable, spec.ID)
		}
		g := quorum.NewGroup(spec.Members)
		var r []proto.NodeID
		var err error
		if t.Spread {
			r, err = g.ReadQuorumSpread(t.Alive, int(node))
		} else {
			r, err = g.ReadQuorum(t.Alive)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrUnavailable, spec.ID, err)
		}
		w, err := g.WriteQuorum(t.Alive)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrUnavailable, spec.ID, err)
		}
		routes[i] = route{read: r, write: w, tag: spec.ID}
	}
	return &routeTable{smap: m, shards: routes}, nil
}
