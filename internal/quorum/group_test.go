package quorum

import (
	"testing"

	"qrdtm/internal/proto"
)

// groupMembers builds a non-contiguous member list (sharding deals arbitrary
// cluster ids into groups, so the translation must not assume density).
func groupMembers(n int) []proto.NodeID {
	out := make([]proto.NodeID, n)
	for i := range out {
		out[i] = proto.NodeID(100 + 7*i)
	}
	return out
}

func TestGroupQuorumsInMemberSpace(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 13} {
		members := groupMembers(n)
		inSet := make(map[proto.NodeID]bool, n)
		for _, m := range members {
			inSet[m] = true
		}
		g := NewGroup(members)
		if g.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, g.Len())
		}
		rq, err := g.ReadQuorum(nil)
		if err != nil {
			t.Fatalf("n=%d: read quorum: %v", n, err)
		}
		wq, err := g.WriteQuorum(nil)
		if err != nil {
			t.Fatalf("n=%d: write quorum: %v", n, err)
		}
		for _, q := range [][]proto.NodeID{rq, wq} {
			for _, node := range q {
				if !inSet[node] {
					t.Fatalf("n=%d: quorum names %v, not a member", n, node)
				}
			}
		}
	}
}

// TestGroupWriteQuorumIntersection verifies the property sharding's 1-copy
// equivalence rests on: within one group, any two write quorums (across
// failure patterns that leave a quorum constructible) intersect, and every
// read quorum intersects every write quorum.
func TestGroupWriteQuorumIntersection(t *testing.T) {
	members := groupMembers(13)
	g := NewGroup(members)

	intersects := func(a, b []proto.NodeID) bool {
		set := make(map[proto.NodeID]bool, len(a))
		for _, n := range a {
			set[n] = true
		}
		for _, n := range b {
			if set[n] {
				return true
			}
		}
		return false
	}

	full, err := g.WriteQuorum(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Kill each member in turn; every surviving write quorum must intersect
	// the full one and every spread read quorum.
	for _, dead := range members {
		alive := func(n proto.NodeID) bool { return n != dead }
		wq, err := g.WriteQuorum(alive)
		if err != nil {
			continue // this failure pattern leaves no write quorum — fine
		}
		if !intersects(wq, full) {
			t.Fatalf("write quorums disjoint with %v dead: %v vs %v", dead, wq, full)
		}
		for choice := 0; choice < 4; choice++ {
			rq, err := g.ReadQuorumSpread(alive, choice)
			if err != nil {
				continue
			}
			if !intersects(rq, wq) {
				t.Fatalf("spread read %d misses write quorum with %v dead: %v vs %v", choice, dead, rq, wq)
			}
		}
	}
}

// TestGroupsIndependent pins that two groups over disjoint members yield
// disjoint quorums — the independence that lets shards commit in parallel.
func TestGroupsIndependent(t *testing.T) {
	a := NewGroup([]proto.NodeID{0, 1, 2, 3, 4, 5})
	b := NewGroup([]proto.NodeID{6, 7, 8, 9, 10, 11, 12})
	aw, err := a.WriteQuorum(nil)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := b.WriteQuorum(nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[proto.NodeID]bool)
	for _, n := range aw {
		seen[n] = true
	}
	for _, n := range bw {
		if seen[n] {
			t.Fatalf("groups share member %v in write quorums", n)
		}
	}
}
