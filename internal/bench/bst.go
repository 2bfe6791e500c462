package bench

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// BSTNode is one node of the unbalanced binary search tree ("" = nil).
type BSTNode struct {
	Key  int64
	L, R proto.ObjectID
}

// CloneValue implements proto.Value.
func (n BSTNode) CloneValue() proto.Value { return n }

// BST is the unbalanced binary search tree used in the paper's
// fault-tolerance experiment (Figure 10).
type BST struct {
	prefix string
	nextID atomic.Uint64
}

// NewBST builds a BST workload.
func NewBST(name string) *BST { return &BST{prefix: name} }

// Name implements Workload.
func (b *BST) Name() string { return "BST" }

func (b *BST) rootKey() proto.ObjectID { return proto.ObjectID(b.prefix + "/root") }

func (b *BST) newNodeID() proto.ObjectID {
	return proto.ObjectID(fmt.Sprintf("%s/n%d", b.prefix, b.nextID.Add(1)))
}

// Setup implements Workload: inserts every other key in a shuffled order so
// the initial tree is balanced in expectation.
func (b *BST) Setup(p Params, rng *rand.Rand) []proto.ObjectCopy {
	keys := make([]int64, 0, (p.Objects+1)/2)
	for k := int64(0); k < int64(p.Objects); k += 2 {
		keys = append(keys, k)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	nodes := make(map[proto.ObjectID]*BSTNode)
	var rootID proto.ObjectID
	for _, k := range keys {
		id := b.newNodeID()
		nodes[id] = &BSTNode{Key: k}
		if rootID == "" {
			rootID = id
			continue
		}
		cur := rootID
		for {
			n := nodes[cur]
			if k < n.Key {
				if n.L == "" {
					n.L = id
					break
				}
				cur = n.L
			} else {
				if n.R == "" {
					n.R = id
					break
				}
				cur = n.R
			}
		}
	}
	copies := make([]proto.ObjectCopy, 0, len(nodes)+1)
	copies = append(copies, proto.ObjectCopy{ID: b.rootKey(), Version: 1, Val: proto.String(rootID)})
	for id, n := range nodes {
		copies = append(copies, proto.ObjectCopy{ID: id, Version: 1, Val: *n})
	}
	return copies
}

// NewTxn implements Workload.
func (b *BST) NewTxn(rng *rand.Rand, p Params) (core.State, []core.Step) {
	steps := make([]core.Step, p.Ops)
	for i := range steps {
		key := int64(rng.IntN(p.Objects))
		switch {
		case rng.Float64() < p.ReadRatio:
			steps[i] = b.containsStep(key)
		case rng.IntN(2) == 0:
			steps[i] = b.insertStep(key, b.newNodeID())
		default:
			steps[i] = b.removeStep(key)
		}
	}
	return core.NoState{}, steps
}

func (b *BST) getNode(tx *core.Txn, id proto.ObjectID) (BSTNode, error) {
	v, ok, err := readVal(tx, id)
	if err != nil {
		return BSTNode{}, err
	}
	if !ok {
		return BSTNode{}, fmt.Errorf("bst: dangling node %v", id)
	}
	return v.(BSTNode), nil
}

func (b *BST) rootOf(tx *core.Txn) (proto.ObjectID, error) {
	v, ok, err := readVal(tx, b.rootKey())
	if err != nil || !ok {
		return "", err
	}
	return proto.ObjectID(v.(proto.String)), nil
}

func (b *BST) containsStep(key int64) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		cur, err := b.rootOf(tx)
		if err != nil {
			return err
		}
		for hops := 0; cur != ""; hops++ {
			if hops > maxTraversal {
				return errCyclicSnapshot
			}
			n, err := b.getNode(tx, cur)
			if err != nil {
				return err
			}
			if n.Key == key {
				return nil
			}
			if key < n.Key {
				cur = n.L
			} else {
				cur = n.R
			}
		}
		return nil
	}
}

func (b *BST) insertStep(key int64, newID proto.ObjectID) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		cur, err := b.rootOf(tx)
		if err != nil {
			return err
		}
		if cur == "" {
			tx.Create(newID, BSTNode{Key: key})
			return tx.Write(b.rootKey(), proto.String(newID))
		}
		for hops := 0; ; hops++ {
			if hops > maxTraversal {
				return errCyclicSnapshot
			}
			n, err := b.getNode(tx, cur)
			if err != nil {
				return err
			}
			if n.Key == key {
				return nil
			}
			if key < n.Key {
				if n.L == "" {
					n.L = newID
					tx.Create(newID, BSTNode{Key: key})
					return tx.Write(cur, n)
				}
				cur = n.L
			} else {
				if n.R == "" {
					n.R = newID
					tx.Create(newID, BSTNode{Key: key})
					return tx.Write(cur, n)
				}
				cur = n.R
			}
		}
	}
}

func (b *BST) removeStep(key int64) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		curID, err := b.rootOf(tx)
		if err != nil {
			return err
		}
		var parentID proto.ObjectID
		var parent BSTNode
		var cur BSTNode
		hops := 0
		for curID != "" {
			if hops++; hops > maxTraversal {
				return errCyclicSnapshot
			}
			cur, err = b.getNode(tx, curID)
			if err != nil {
				return err
			}
			if cur.Key == key {
				break
			}
			parentID, parent = curID, cur
			if key < cur.Key {
				curID = cur.L
			} else {
				curID = cur.R
			}
		}
		if curID == "" {
			return nil // absent
		}

		// replaceChild rewires parent (or the root pointer) to newChild.
		replaceChild := func(newChild proto.ObjectID) error {
			if parentID == "" {
				return tx.Write(b.rootKey(), proto.String(newChild))
			}
			if parent.L == curID {
				parent.L = newChild
			} else {
				parent.R = newChild
			}
			return tx.Write(parentID, parent)
		}

		switch {
		case cur.L == "":
			return replaceChild(cur.R)
		case cur.R == "":
			return replaceChild(cur.L)
		default:
			// Two children: splice the minimum of the right subtree.
			succParentID := curID
			succParent := cur
			succID := cur.R
			succ, err := b.getNode(tx, succID)
			if err != nil {
				return err
			}
			for succ.L != "" {
				if hops++; hops > maxTraversal {
					return errCyclicSnapshot
				}
				succParentID, succParent = succID, succ
				succID = succ.L
				succ, err = b.getNode(tx, succID)
				if err != nil {
					return err
				}
			}
			if succParentID == curID {
				// Successor is cur's direct right child.
				succ.L = cur.L
				if err := tx.Write(succID, succ); err != nil {
					return err
				}
			} else {
				succParent.L = succ.R
				if err := tx.Write(succParentID, succParent); err != nil {
					return err
				}
				succ.L, succ.R = cur.L, cur.R
				if err := tx.Write(succID, succ); err != nil {
					return err
				}
			}
			return replaceChild(succID)
		}
	}
}

// Verify implements Workload: in-order keys strictly ascend and the
// structure is acyclic.
func (b *BST) Verify(p Params, read Oracle) error {
	rootV, ok := read(b.rootKey())
	if !ok {
		return fmt.Errorf("bst: missing root pointer")
	}
	count := 0
	var walk func(id proto.ObjectID, lo, hi *int64) error
	walk = func(id proto.ObjectID, lo, hi *int64) error {
		if id == "" {
			return nil
		}
		if count++; count > p.Objects+8 {
			return fmt.Errorf("bst: more reachable nodes than possible keys; cycle?")
		}
		v, ok := read(id)
		if !ok {
			return fmt.Errorf("bst: dangling node %v", id)
		}
		n := v.(BSTNode)
		if lo != nil && n.Key <= *lo {
			return fmt.Errorf("bst: order violation at key %d", n.Key)
		}
		if hi != nil && n.Key >= *hi {
			return fmt.Errorf("bst: order violation at key %d", n.Key)
		}
		if err := walk(n.L, lo, &n.Key); err != nil {
			return err
		}
		return walk(n.R, &n.Key, hi)
	}
	return walk(proto.ObjectID(rootV.(proto.String)), nil, nil)
}
