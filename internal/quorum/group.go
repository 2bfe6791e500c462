package quorum

import "qrdtm/internal/proto"

// Group is a quorum tree over an explicit member list rather than the dense
// node ids 0..N-1: Members[0] is the tree root and the children of position i
// are positions 3i+1..3i+3, exactly as in Tree, but quorums come back in the
// cluster-wide NodeID space. It is the building block for sharding — every
// shard runs its own independent Group over its members, and the tree-quorum
// intersection property holds within each shard.
type Group struct {
	tree    *Tree
	members []proto.NodeID
}

// NewGroup builds a quorum group over members (tree order). It panics on an
// empty member list, like NewTree.
func NewGroup(members []proto.NodeID) *Group {
	return &Group{tree: NewTree(len(members)), members: members}
}

// Len returns the number of members.
func (g *Group) Len() int { return len(g.members) }

// position translates a cluster Alive predicate into tree-position space.
func (g *Group) positionAlive(alive Alive) Alive {
	if alive == nil {
		return AllAlive
	}
	return func(pos proto.NodeID) bool { return alive(g.members[pos]) }
}

// translate maps tree positions back to cluster node ids.
func (g *Group) translate(q []proto.NodeID, err error) ([]proto.NodeID, error) {
	if err != nil {
		return nil, err
	}
	out := make([]proto.NodeID, len(q))
	for i, pos := range q {
		out[i] = g.members[pos]
	}
	return out, nil
}

// ReadQuorum assembles the canonical read quorum in cluster node ids.
func (g *Group) ReadQuorum(alive Alive) ([]proto.NodeID, error) {
	return g.translate(g.tree.ReadQuorum(g.positionAlive(alive)))
}

// ReadQuorumSpread is the failure-adaptive read quorum of
// Tree.ReadQuorumSpread in cluster node ids.
func (g *Group) ReadQuorumSpread(alive Alive, choice int) ([]proto.NodeID, error) {
	return g.translate(g.tree.ReadQuorumSpread(g.positionAlive(alive), choice))
}

// WriteQuorum assembles the canonical write quorum in cluster node ids.
func (g *Group) WriteQuorum(alive Alive) ([]proto.NodeID, error) {
	return g.translate(g.tree.WriteQuorum(g.positionAlive(alive)))
}
