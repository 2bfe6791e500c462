package bench

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// slMaxLevel bounds skiplist towers. With p = 1/2 this comfortably covers
// the element counts the experiments use.
const slMaxLevel = 8

// SkipNode is one skiplist element: its key and one forward pointer per
// level ("" terminates a level).
type SkipNode struct {
	Key     int64
	Forward proto.IDSlice
}

// CloneValue implements proto.Value.
func (n SkipNode) CloneValue() proto.Value {
	out := n
	out.Forward = make(proto.IDSlice, len(n.Forward))
	copy(out.Forward, n.Forward)
	return out
}

// SkipList is the paper's SList micro-benchmark: every node is a DTM
// object, so a search reads the whole descent path. These are the paper's
// longest transactions — and the benchmark where closed nesting gains the
// most (101% over flat), because a conflict late in a long traversal only
// retries the enclosing operation, not the whole transaction.
type SkipList struct {
	prefix string
	nextID atomic.Uint64
}

// NewSkipList builds a skiplist workload.
func NewSkipList(name string) *SkipList { return &SkipList{prefix: name} }

// Name implements Workload.
func (s *SkipList) Name() string { return "SList" }

func (s *SkipList) headID() proto.ObjectID {
	return proto.ObjectID(s.prefix + "/head")
}

func (s *SkipList) newNodeID() proto.ObjectID {
	return proto.ObjectID(fmt.Sprintf("%s/n%d", s.prefix, s.nextID.Add(1)))
}

func randomLevel(rng *rand.Rand) int {
	lvl := 1
	for lvl < slMaxLevel && rng.IntN(2) == 0 {
		lvl++
	}
	return lvl
}

// Setup implements Workload: pre-populates every other key with
// deterministic tower heights.
func (s *SkipList) Setup(p Params, rng *rand.Rand) []proto.ObjectCopy {
	type memNode struct {
		id   proto.ObjectID
		node SkipNode
	}
	head := &memNode{id: s.headID(), node: SkipNode{
		Key: math.MinInt64, Forward: make(proto.IDSlice, slMaxLevel),
	}}
	// Insert ascending: appending at the tail per level.
	tails := make([]*memNode, slMaxLevel)
	for i := range tails {
		tails[i] = head
	}
	var nodes []*memNode
	for key := int64(0); key < int64(p.Objects); key += 2 {
		lvl := randomLevel(rng)
		n := &memNode{id: s.newNodeID(), node: SkipNode{
			Key: key, Forward: make(proto.IDSlice, lvl),
		}}
		for l := 0; l < lvl; l++ {
			tails[l].node.Forward[l] = n.id
			tails[l] = n
		}
		nodes = append(nodes, n)
	}
	copies := make([]proto.ObjectCopy, 0, len(nodes)+1)
	copies = append(copies, proto.ObjectCopy{ID: head.id, Version: 1, Val: head.node})
	for _, n := range nodes {
		copies = append(copies, proto.ObjectCopy{ID: n.id, Version: 1, Val: n.node})
	}
	return copies
}

// NewTxn implements Workload.
func (s *SkipList) NewTxn(rng *rand.Rand, p Params) (core.State, []core.Step) {
	steps := make([]core.Step, p.Ops)
	for i := range steps {
		key := int64(rng.IntN(p.Objects))
		switch {
		case rng.Float64() < p.ReadRatio:
			steps[i] = s.containsStep(key)
		case rng.IntN(2) == 0:
			steps[i] = s.insertStep(key, randomLevel(rng), s.newNodeID())
		default:
			steps[i] = s.removeStep(key)
		}
	}
	return core.NoState{}, steps
}

func (s *SkipList) getNode(tx *core.Txn, id proto.ObjectID) (SkipNode, error) {
	v, ok, err := readVal(tx, id)
	if err != nil {
		return SkipNode{}, err
	}
	if !ok {
		return SkipNode{}, fmt.Errorf("slist: dangling node %v", id)
	}
	return v.(SkipNode), nil
}

// descend walks from the head towards key, filling update with the last
// node visited per level (the relink points for insert/remove).
//
// Each node visited prefetches its forward frontier: the descent's next read
// is always one of the current node's forward pointers at the current level
// or below, so batching them into one quorum round turns a per-hop round
// trip into a local lookup for every level the descent drops through. The
// frontier can over-fetch (a pointer the descent skips past still enters the
// footprint, widening the conflict window slightly) — the batch experiment
// prices that trade against the saved rounds.
func (s *SkipList) descend(tx *core.Txn, key int64) (update [slMaxLevel]proto.ObjectID, updateNodes [slMaxLevel]SkipNode, err error) {
	curID := s.headID()
	cur, err := s.getNode(tx, curID)
	if err != nil {
		return update, updateNodes, err
	}
	if err := s.prefetchFrontier(tx, cur, slMaxLevel-1); err != nil {
		return update, updateNodes, err
	}
	visits := 0
	for l := slMaxLevel - 1; l >= 0; l-- {
		for l < len(cur.Forward) && cur.Forward[l] != "" {
			if visits++; visits > maxTraversal {
				return update, updateNodes, errCyclicSnapshot
			}
			next, nerr := s.getNode(tx, cur.Forward[l])
			if nerr != nil {
				return update, updateNodes, nerr
			}
			if next.Key >= key {
				break
			}
			curID, cur = cur.Forward[l], next
			if err := s.prefetchFrontier(tx, cur, l); err != nil {
				return update, updateNodes, err
			}
		}
		update[l], updateNodes[l] = curID, cur
	}
	return update, updateNodes, nil
}

// prefetchFrontier batches the node's forward pointers at maxLvl and below
// into one read round. Levels above maxLvl are behind the descent and never
// visited; empty pointers terminate levels and are skipped.
func (s *SkipList) prefetchFrontier(tx *core.Txn, n SkipNode, maxLvl int) error {
	fwd := n.Forward
	if maxLvl+1 < len(fwd) {
		fwd = fwd[:maxLvl+1]
	}
	ids := make([]proto.ObjectID, 0, len(fwd))
	for _, id := range fwd {
		if id != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	return tx.ReadAll(ids...)
}

func (s *SkipList) containsStep(key int64) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		update, updateNodes, err := s.descend(tx, key)
		if err != nil {
			return err
		}
		nextID := updateNodes[0].Forward[0]
		_ = update
		if nextID == "" {
			return nil
		}
		next, err := s.getNode(tx, nextID)
		if err != nil {
			return err
		}
		_ = next.Key == key
		return nil
	}
}

func (s *SkipList) insertStep(key int64, lvl int, newID proto.ObjectID) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		update, updateNodes, err := s.descend(tx, key)
		if err != nil {
			return err
		}
		if nextID := updateNodes[0].Forward[0]; nextID != "" {
			next, err := s.getNode(tx, nextID)
			if err != nil {
				return err
			}
			if next.Key == key {
				return nil // already present
			}
		}
		fwd := make(proto.IDSlice, lvl)
		for l := 0; l < lvl; l++ {
			if l < len(updateNodes[l].Forward) {
				fwd[l] = updateNodes[l].Forward[l]
			}
		}
		tx.Create(newID, SkipNode{Key: key, Forward: fwd})
		// Relink each predecessor, coalescing writes per node.
		for l := 0; l < lvl; {
			id := update[l]
			n := updateNodes[l].CloneValue().(SkipNode)
			j := l
			for ; j < lvl && update[j] == id; j++ {
				for len(n.Forward) <= j {
					n.Forward = append(n.Forward, "")
				}
				n.Forward[j] = newID
			}
			if err := tx.Write(id, n); err != nil {
				return err
			}
			// Later levels may still reference this predecessor's OLD
			// image in updateNodes; refresh it so relinks compose.
			for k := j; k < slMaxLevel; k++ {
				if update[k] == id {
					updateNodes[k] = n
				}
			}
			l = j
		}
		return nil
	}
}

func (s *SkipList) removeStep(key int64) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		update, updateNodes, err := s.descend(tx, key)
		if err != nil {
			return err
		}
		targetID := updateNodes[0].Forward[0]
		if targetID == "" {
			return nil
		}
		target, err := s.getNode(tx, targetID)
		if err != nil {
			return err
		}
		if target.Key != key {
			return nil // absent
		}
		for l := 0; l < len(target.Forward); {
			id := update[l]
			n := updateNodes[l].CloneValue().(SkipNode)
			j := l
			for ; j < len(target.Forward) && update[j] == id; j++ {
				if j < len(n.Forward) && n.Forward[j] == targetID {
					n.Forward[j] = target.Forward[j]
				}
			}
			if err := tx.Write(id, n); err != nil {
				return err
			}
			for k := j; k < slMaxLevel; k++ {
				if update[k] == id {
					updateNodes[k] = n
				}
			}
			l = j
		}
		return nil
	}
}

// Verify implements Workload: level-0 keys strictly ascend; every higher
// level is a subsequence of level 0; all chains terminate.
func (s *SkipList) Verify(p Params, read Oracle) error {
	get := func(id proto.ObjectID) (SkipNode, error) {
		v, ok := read(id)
		if !ok {
			return SkipNode{}, fmt.Errorf("slist: dangling node %v", id)
		}
		return v.(SkipNode), nil
	}
	head, err := get(s.headID())
	if err != nil {
		return err
	}
	level0 := make(map[proto.ObjectID]int64)
	prev := int64(math.MinInt64)
	for cur, hops := head.Forward[0], 0; cur != ""; hops++ {
		if hops > p.Objects+4 {
			return fmt.Errorf("slist: level 0 does not terminate")
		}
		n, err := get(cur)
		if err != nil {
			return err
		}
		if n.Key <= prev {
			return fmt.Errorf("slist: keys out of order at %v: %d after %d", cur, n.Key, prev)
		}
		level0[cur] = n.Key
		prev = n.Key
		cur = n.Forward[0]
	}
	for l := 1; l < slMaxLevel; l++ {
		prev = int64(math.MinInt64)
		for cur, hops := head.Forward[l], 0; cur != ""; hops++ {
			if hops > p.Objects+4 {
				return fmt.Errorf("slist: level %d does not terminate", l)
			}
			key, ok := level0[cur]
			if !ok {
				return fmt.Errorf("slist: level %d references node %v missing from level 0", l, cur)
			}
			if key <= prev {
				return fmt.Errorf("slist: level %d out of order at %v", l, cur)
			}
			prev = key
			n, err := get(cur)
			if err != nil {
				return err
			}
			if l >= len(n.Forward) {
				return fmt.Errorf("slist: node %v on level %d but tower height %d", cur, l, len(n.Forward))
			}
			cur = n.Forward[l]
		}
	}
	return nil
}
