package bench

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// ChainNode is one element of a hashmap bucket chain (or any singly linked
// structure): a key plus the id of the next node ("" terminates).
type ChainNode struct {
	Key  int64
	Next proto.ObjectID
}

// CloneValue implements proto.Value. ChainNode contains only value types,
// so the receiver is its own deep copy.
func (n ChainNode) CloneValue() proto.Value { return n }

// AppendLinks implements proto.Linker: a node links to its successor.
func (n ChainNode) AppendLinks(dst []proto.ObjectID) []proto.ObjectID {
	if n.Next != "" {
		dst = append(dst, n.Next)
	}
	return dst
}

// ChainHead is a hashmap bucket head: the id of the bucket's first chain
// node ("" for an empty bucket).
type ChainHead struct {
	First proto.ObjectID
}

// CloneValue implements proto.Value.
func (h ChainHead) CloneValue() proto.Value { return h }

// AppendLinks implements proto.Linker: a head links to its first node, so
// the read of a bucket head ships the bucket's chain with it.
func (h ChainHead) AppendLinks(dst []proto.ObjectID) []proto.ObjectID {
	if h.First != "" {
		dst = append(dst, h.First)
	}
	return dst
}

// Hashmap is a chained hash map with a fixed bucket count: bucket heads and
// every chain node are separate DTM objects, so operations traverse chains
// transactionally. Growing the element count (Params.Objects) lengthens the
// chains and therefore each transaction's footprint — this is why the
// paper's contention *increases* with object count for Hashmap, unlike Bank
// or RBTree.
type Hashmap struct {
	prefix  string
	buckets int
	nextID  atomic.Uint64
}

// NewHashmap builds a hashmap workload with the given fixed bucket count.
func NewHashmap(name string, buckets int) *Hashmap {
	if buckets < 1 {
		buckets = 1
	}
	return &Hashmap{prefix: name, buckets: buckets}
}

// Name implements Workload.
func (h *Hashmap) Name() string { return "Hashmap" }

func (h *Hashmap) head(b int) proto.ObjectID {
	return proto.ObjectID(fmt.Sprintf("%s/h%d", h.prefix, b))
}

func (h *Hashmap) newNodeID() proto.ObjectID {
	return proto.ObjectID(fmt.Sprintf("%s/n%d", h.prefix, h.nextID.Add(1)))
}

func (h *Hashmap) bucketOf(key int64) int {
	b := int(key) % h.buckets
	if b < 0 {
		b += h.buckets
	}
	return b
}

// Setup implements Workload: pre-populates half the key range so reads hit
// and misses both occur.
func (h *Hashmap) Setup(p Params, _ *rand.Rand) []proto.ObjectCopy {
	heads := make([]proto.ObjectID, h.buckets)
	var copies []proto.ObjectCopy
	for key := int64(0); key < int64(p.Objects); key += 2 {
		b := h.bucketOf(key)
		id := h.newNodeID()
		copies = append(copies, proto.ObjectCopy{
			ID: id, Version: 1, Val: ChainNode{Key: key, Next: heads[b]},
		})
		heads[b] = id
	}
	for b := 0; b < h.buckets; b++ {
		copies = append(copies, proto.ObjectCopy{
			ID: h.head(b), Version: 1, Val: ChainHead{First: heads[b]},
		})
	}
	return copies
}

// NewTxn implements Workload: p.Ops operations (contains / put / remove),
// each one step, preceded by a prefetch of every bucket head the
// transaction will touch. The keys — and therefore the heads — are fixed at
// build time, so the heads are a known read set: one batched quorum round
// fetches them all, and each operation's chainFirst then resolves locally.
// Heads and nodes link to their successors (proto.Linker), so the same round
// also ships each bucket's chain and the traversals cost no further round.
func (h *Hashmap) NewTxn(rng *rand.Rand, p Params) (core.State, []core.Step) {
	steps := make([]core.Step, p.Ops)
	heads := make([]proto.ObjectID, 0, p.Ops)
	for i := range steps {
		key := int64(rng.IntN(p.Objects))
		heads = append(heads, h.head(h.bucketOf(key)))
		switch {
		case rng.Float64() < p.ReadRatio:
			steps[i] = h.containsStep(key)
		case rng.IntN(2) == 0:
			steps[i] = h.putStep(key, h.newNodeID())
		default:
			steps[i] = h.removeStep(key)
		}
	}
	prefetch := func(tx *core.Txn, _ core.State) error {
		return tx.ReadAll(heads...)
	}
	return core.NoState{}, append([]core.Step{prefetch}, steps...)
}

// chainFirst reads a bucket's head pointer.
func (h *Hashmap) chainFirst(tx *core.Txn, b int) (proto.ObjectID, error) {
	v, ok, err := readVal(tx, h.head(b))
	if err != nil || !ok {
		return "", err
	}
	return v.(ChainHead).First, nil
}

func (h *Hashmap) containsStep(key int64) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		cur, err := h.chainFirst(tx, h.bucketOf(key))
		if err != nil {
			return err
		}
		for hops := 0; cur != ""; hops++ {
			if hops > maxTraversal {
				return errCyclicSnapshot
			}
			v, ok, err := readVal(tx, cur)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("hashmap: dangling chain node %v", cur)
			}
			n := v.(ChainNode)
			if n.Key == key {
				return nil
			}
			cur = n.Next
		}
		return nil
	}
}

// putStep inserts key if absent. The new node's id is pre-allocated at
// build time so retries are idempotent.
func (h *Hashmap) putStep(key int64, newID proto.ObjectID) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		b := h.bucketOf(key)
		first, err := h.chainFirst(tx, b)
		if err != nil {
			return err
		}
		hops := 0
		for cur := first; cur != ""; {
			if hops++; hops > maxTraversal {
				return errCyclicSnapshot
			}
			v, ok, err := readVal(tx, cur)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("hashmap: dangling chain node %v", cur)
			}
			n := v.(ChainNode)
			if n.Key == key {
				return nil // already present
			}
			cur = n.Next
		}
		tx.Create(newID, ChainNode{Key: key, Next: first})
		return tx.Write(h.head(b), ChainHead{First: newID})
	}
}

func (h *Hashmap) removeStep(key int64) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		b := h.bucketOf(key)
		cur, err := h.chainFirst(tx, b)
		if err != nil {
			return err
		}
		var prev proto.ObjectID
		var prevNode ChainNode
		for hops := 0; cur != ""; hops++ {
			if hops > maxTraversal {
				return errCyclicSnapshot
			}
			v, ok, err := readVal(tx, cur)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("hashmap: dangling chain node %v", cur)
			}
			n := v.(ChainNode)
			if n.Key == key {
				if prev == "" {
					return tx.Write(h.head(b), ChainHead{First: n.Next})
				}
				prevNode.Next = n.Next
				return tx.Write(prev, prevNode)
				// The removed node object is left unreferenced; DTM objects
				// are never reclaimed in this implementation.
			}
			prev, prevNode = cur, n
			cur = n.Next
		}
		return nil // absent
	}
}

// Verify implements Workload: every chain terminates, holds no duplicate or
// misplaced keys, and every key maps to its bucket.
func (h *Hashmap) Verify(p Params, read Oracle) error {
	seen := make(map[int64]bool)
	for b := 0; b < h.buckets; b++ {
		v, ok := read(h.head(b))
		if !ok {
			return fmt.Errorf("hashmap: missing head %d", b)
		}
		cur := v.(ChainHead).First
		for hops := 0; cur != ""; hops++ {
			if hops > p.Objects+1 {
				return fmt.Errorf("hashmap: bucket %d chain does not terminate", b)
			}
			nv, ok := read(cur)
			if !ok {
				return fmt.Errorf("hashmap: dangling node %v in bucket %d", cur, b)
			}
			n := nv.(ChainNode)
			if h.bucketOf(n.Key) != b {
				return fmt.Errorf("hashmap: key %d found in bucket %d, belongs in %d", n.Key, b, h.bucketOf(n.Key))
			}
			if seen[n.Key] {
				return fmt.Errorf("hashmap: duplicate key %d", n.Key)
			}
			seen[n.Key] = true
			cur = n.Next
		}
	}
	return nil
}
