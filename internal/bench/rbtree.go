package bench

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// rbMaxIter bounds red-black descent and fixup loops; see maxTraversal.
const rbMaxIter = 1 << 16

// RBNode is one red-black tree node: key, colour and child/parent links
// ("" = nil; nil leaves are black).
type RBNode struct {
	Key     int64
	Red     bool
	L, R, P proto.ObjectID
}

// CloneValue implements proto.Value (all fields are value types).
func (n RBNode) CloneValue() proto.Value { return n }

// rbStore abstracts node storage so the same red-black algorithms run over
// a transaction (the benchmark), a plain map (Setup and pure-logic property
// tests) and the verification oracle.
type rbStore interface {
	node(id proto.ObjectID) (RBNode, bool, error)
	setNode(id proto.ObjectID, n RBNode) error
	createNode(id proto.ObjectID, n RBNode) error
	root() (proto.ObjectID, error)
	setRoot(id proto.ObjectID) error
}

// mapRBStore is the in-memory rbStore (setup + tests).
type mapRBStore struct {
	nodes  map[proto.ObjectID]RBNode
	rootID proto.ObjectID
}

func newMapRBStore() *mapRBStore {
	return &mapRBStore{nodes: make(map[proto.ObjectID]RBNode)}
}

func (m *mapRBStore) node(id proto.ObjectID) (RBNode, bool, error) {
	n, ok := m.nodes[id]
	return n, ok, nil
}
func (m *mapRBStore) setNode(id proto.ObjectID, n RBNode) error    { m.nodes[id] = n; return nil }
func (m *mapRBStore) createNode(id proto.ObjectID, n RBNode) error { m.nodes[id] = n; return nil }
func (m *mapRBStore) root() (proto.ObjectID, error)                { return m.rootID, nil }
func (m *mapRBStore) setRoot(id proto.ObjectID) error              { m.rootID = id; return nil }

// txRBStore is the transactional rbStore: reads go through the transaction
// (building its footprint), node mutations are cached locally and flushed
// as transactional writes when the operation completes, so each object is
// written once per operation no matter how many times the rebalancing code
// touches it.
type txRBStore struct {
	tx      *core.Txn
	rootKey proto.ObjectID
	cache   map[proto.ObjectID]RBNode
	dirty   map[proto.ObjectID]bool
	created map[proto.ObjectID]bool
	rootID  proto.ObjectID
	rootOK  bool
	rootDty bool
}

func newTxRBStore(tx *core.Txn, rootKey proto.ObjectID) *txRBStore {
	return &txRBStore{
		tx:      tx,
		rootKey: rootKey,
		cache:   make(map[proto.ObjectID]RBNode),
		dirty:   make(map[proto.ObjectID]bool),
		created: make(map[proto.ObjectID]bool),
	}
}

func (s *txRBStore) node(id proto.ObjectID) (RBNode, bool, error) {
	if n, ok := s.cache[id]; ok {
		return n, true, nil
	}
	v, ok, err := readVal(s.tx, id)
	if err != nil || !ok {
		return RBNode{}, false, err
	}
	n := v.(RBNode)
	s.cache[id] = n
	return n, true, nil
}

func (s *txRBStore) setNode(id proto.ObjectID, n RBNode) error {
	s.cache[id] = n
	s.dirty[id] = true
	return nil
}

func (s *txRBStore) createNode(id proto.ObjectID, n RBNode) error {
	s.cache[id] = n
	s.created[id] = true
	return nil
}

func (s *txRBStore) root() (proto.ObjectID, error) {
	if s.rootOK {
		return s.rootID, nil
	}
	v, ok, err := readVal(s.tx, s.rootKey)
	if err != nil {
		return "", err
	}
	if ok {
		s.rootID = proto.ObjectID(v.(proto.String))
	}
	s.rootOK = true
	return s.rootID, nil
}

func (s *txRBStore) setRoot(id proto.ObjectID) error {
	s.rootID, s.rootOK, s.rootDty = id, true, true
	return nil
}

// flush writes every mutation through the transaction.
func (s *txRBStore) flush() error {
	for id := range s.created {
		s.tx.Create(id, s.cache[id])
	}
	for id := range s.dirty {
		if s.created[id] {
			continue
		}
		if err := s.tx.Write(id, s.cache[id]); err != nil {
			return err
		}
	}
	if s.rootDty {
		return s.tx.Write(s.rootKey, proto.String(s.rootID))
	}
	return nil
}

// ---- Red-black algorithms over rbStore (CLRS, "" plays nil) ----

func rbIsRed(s rbStore, id proto.ObjectID) (bool, error) {
	if id == "" {
		return false, nil
	}
	n, ok, err := s.node(id)
	if err != nil || !ok {
		return false, err
	}
	return n.Red, nil
}

func rbMust(s rbStore, id proto.ObjectID) (RBNode, error) {
	n, ok, err := s.node(id)
	if err != nil {
		return n, err
	}
	if !ok {
		return n, fmt.Errorf("rbtree: dangling node %v", id)
	}
	return n, nil
}

// rbRotate rotates around x; left when dir == 0, right when dir == 1.
func rbRotate(s rbStore, xID proto.ObjectID, left bool) error {
	x, err := rbMust(s, xID)
	if err != nil {
		return err
	}
	var yID proto.ObjectID
	if left {
		yID = x.R
	} else {
		yID = x.L
	}
	y, err := rbMust(s, yID)
	if err != nil {
		return err
	}
	var moved proto.ObjectID
	if left {
		moved = y.L
		x.R = moved
	} else {
		moved = y.R
		x.L = moved
	}
	if moved != "" {
		m, err := rbMust(s, moved)
		if err != nil {
			return err
		}
		m.P = xID
		if err := s.setNode(moved, m); err != nil {
			return err
		}
	}
	y.P = x.P
	if x.P == "" {
		if err := s.setRoot(yID); err != nil {
			return err
		}
	} else {
		p, err := rbMust(s, x.P)
		if err != nil {
			return err
		}
		if p.L == xID {
			p.L = yID
		} else {
			p.R = yID
		}
		if err := s.setNode(x.P, p); err != nil {
			return err
		}
	}
	if left {
		y.L = xID
	} else {
		y.R = xID
	}
	x.P = yID
	if err := s.setNode(yID, y); err != nil {
		return err
	}
	return s.setNode(xID, x)
}

// rbContains reports whether key is present.
func rbContains(s rbStore, key int64) (bool, error) {
	cur, err := s.root()
	if err != nil {
		return false, err
	}
	for hops := 0; cur != ""; hops++ {
		if hops > rbMaxIter {
			return false, errCyclicSnapshot
		}
		n, err := rbMust(s, cur)
		if err != nil {
			return false, err
		}
		switch {
		case key == n.Key:
			return true, nil
		case key < n.Key:
			cur = n.L
		default:
			cur = n.R
		}
	}
	return false, nil
}

// rbInsert inserts key with a caller-allocated node id; no-op if present.
func rbInsert(s rbStore, key int64, newID proto.ObjectID) error {
	rootID, err := s.root()
	if err != nil {
		return err
	}
	var parent proto.ObjectID
	cur := rootID
	for hops := 0; cur != ""; hops++ {
		if hops > rbMaxIter {
			return errCyclicSnapshot
		}
		n, err := rbMust(s, cur)
		if err != nil {
			return err
		}
		if key == n.Key {
			return nil
		}
		parent = cur
		if key < n.Key {
			cur = n.L
		} else {
			cur = n.R
		}
	}
	z := RBNode{Key: key, Red: true, P: parent}
	if err := s.createNode(newID, z); err != nil {
		return err
	}
	if parent == "" {
		if err := s.setRoot(newID); err != nil {
			return err
		}
	} else {
		p, err := rbMust(s, parent)
		if err != nil {
			return err
		}
		if key < p.Key {
			p.L = newID
		} else {
			p.R = newID
		}
		if err := s.setNode(parent, p); err != nil {
			return err
		}
	}
	return rbInsertFixup(s, newID)
}

func rbInsertFixup(s rbStore, zID proto.ObjectID) error {
	for iter := 0; ; iter++ {
		if iter > rbMaxIter {
			return errCyclicSnapshot
		}
		z, err := rbMust(s, zID)
		if err != nil {
			return err
		}
		if z.P == "" {
			break
		}
		pRed, err := rbIsRed(s, z.P)
		if err != nil {
			return err
		}
		if !pRed {
			break
		}
		p, err := rbMust(s, z.P)
		if err != nil {
			return err
		}
		// The parent is red, so the grandparent exists (the root is black).
		g, err := rbMust(s, p.P)
		if err != nil {
			return err
		}
		parentIsLeft := g.L == z.P
		var uncleID proto.ObjectID
		if parentIsLeft {
			uncleID = g.R
		} else {
			uncleID = g.L
		}
		uncleRed, err := rbIsRed(s, uncleID)
		if err != nil {
			return err
		}
		if uncleRed {
			p.Red = false
			if err := s.setNode(z.P, p); err != nil {
				return err
			}
			u, err := rbMust(s, uncleID)
			if err != nil {
				return err
			}
			u.Red = false
			if err := s.setNode(uncleID, u); err != nil {
				return err
			}
			g.Red = true
			if err := s.setNode(p.P, g); err != nil {
				return err
			}
			zID = p.P
			continue
		}
		gID := p.P
		if parentIsLeft {
			if z.P != "" && zID == p.R {
				zID = z.P
				if err := rbRotate(s, zID, true); err != nil {
					return err
				}
			}
			zn, err := rbMust(s, zID)
			if err != nil {
				return err
			}
			pp, err := rbMust(s, zn.P)
			if err != nil {
				return err
			}
			pp.Red = false
			if err := s.setNode(zn.P, pp); err != nil {
				return err
			}
			g2, err := rbMust(s, gID)
			if err != nil {
				return err
			}
			g2.Red = true
			if err := s.setNode(gID, g2); err != nil {
				return err
			}
			if err := rbRotate(s, gID, false); err != nil {
				return err
			}
		} else {
			if zID == p.L {
				zID = z.P
				if err := rbRotate(s, zID, false); err != nil {
					return err
				}
			}
			zn, err := rbMust(s, zID)
			if err != nil {
				return err
			}
			pp, err := rbMust(s, zn.P)
			if err != nil {
				return err
			}
			pp.Red = false
			if err := s.setNode(zn.P, pp); err != nil {
				return err
			}
			g2, err := rbMust(s, gID)
			if err != nil {
				return err
			}
			g2.Red = true
			if err := s.setNode(gID, g2); err != nil {
				return err
			}
			if err := rbRotate(s, gID, true); err != nil {
				return err
			}
		}
		break
	}
	rootID, err := s.root()
	if err != nil {
		return err
	}
	if rootID != "" {
		r, err := rbMust(s, rootID)
		if err != nil {
			return err
		}
		if r.Red {
			r.Red = false
			return s.setNode(rootID, r)
		}
	}
	return nil
}

// rbTransplant replaces subtree u by subtree v.
func rbTransplant(s rbStore, uID, vID proto.ObjectID) error {
	u, err := rbMust(s, uID)
	if err != nil {
		return err
	}
	if u.P == "" {
		if err := s.setRoot(vID); err != nil {
			return err
		}
	} else {
		p, err := rbMust(s, u.P)
		if err != nil {
			return err
		}
		if p.L == uID {
			p.L = vID
		} else {
			p.R = vID
		}
		if err := s.setNode(u.P, p); err != nil {
			return err
		}
	}
	if vID != "" {
		v, err := rbMust(s, vID)
		if err != nil {
			return err
		}
		v.P = u.P
		return s.setNode(vID, v)
	}
	return nil
}

// rbDelete removes key; no-op if absent.
func rbDelete(s rbStore, key int64) error {
	zID, err := s.root()
	if err != nil {
		return err
	}
	for hops := 0; zID != ""; hops++ {
		if hops > rbMaxIter {
			return errCyclicSnapshot
		}
		n, err := rbMust(s, zID)
		if err != nil {
			return err
		}
		if key == n.Key {
			break
		}
		if key < n.Key {
			zID = n.L
		} else {
			zID = n.R
		}
	}
	if zID == "" {
		return nil
	}
	z, err := rbMust(s, zID)
	if err != nil {
		return err
	}

	yID := zID
	yOrigRed := z.Red
	var xID, xParent proto.ObjectID
	switch {
	case z.L == "":
		xID, xParent = z.R, z.P
		if err := rbTransplant(s, zID, z.R); err != nil {
			return err
		}
	case z.R == "":
		xID, xParent = z.L, z.P
		if err := rbTransplant(s, zID, z.L); err != nil {
			return err
		}
	default:
		// y = minimum of z's right subtree.
		yID = z.R
		for hops := 0; ; hops++ {
			if hops > rbMaxIter {
				return errCyclicSnapshot
			}
			y, err := rbMust(s, yID)
			if err != nil {
				return err
			}
			if y.L == "" {
				break
			}
			yID = y.L
		}
		y, err := rbMust(s, yID)
		if err != nil {
			return err
		}
		yOrigRed = y.Red
		xID = y.R
		if y.P == zID {
			xParent = yID
		} else {
			xParent = y.P
			if err := rbTransplant(s, yID, y.R); err != nil {
				return err
			}
			y, err = rbMust(s, yID)
			if err != nil {
				return err
			}
			z, err = rbMust(s, zID) // transplant may have touched z's links
			if err != nil {
				return err
			}
			y.R = z.R
			if err := s.setNode(yID, y); err != nil {
				return err
			}
			if y.R != "" {
				r, err := rbMust(s, y.R)
				if err != nil {
					return err
				}
				r.P = yID
				if err := s.setNode(y.R, r); err != nil {
					return err
				}
			}
		}
		if err := rbTransplant(s, zID, yID); err != nil {
			return err
		}
		z, err = rbMust(s, zID)
		if err != nil {
			return err
		}
		y, err = rbMust(s, yID)
		if err != nil {
			return err
		}
		y.L = z.L
		y.Red = z.Red
		if err := s.setNode(yID, y); err != nil {
			return err
		}
		if y.L != "" {
			l, err := rbMust(s, y.L)
			if err != nil {
				return err
			}
			l.P = yID
			if err := s.setNode(y.L, l); err != nil {
				return err
			}
		}
	}
	if !yOrigRed {
		return rbDeleteFixup(s, xID, xParent)
	}
	return nil
}

func rbDeleteFixup(s rbStore, xID, xParent proto.ObjectID) error {
	for iter := 0; ; iter++ {
		if iter > rbMaxIter {
			return errCyclicSnapshot
		}
		rootID, err := s.root()
		if err != nil {
			return err
		}
		if xID == rootID {
			break
		}
		xRed, err := rbIsRed(s, xID)
		if err != nil {
			return err
		}
		if xRed {
			break
		}
		p, err := rbMust(s, xParent)
		if err != nil {
			return err
		}
		xIsLeft := p.L == xID
		var wID proto.ObjectID
		if xIsLeft {
			wID = p.R
		} else {
			wID = p.L
		}
		if wID == "" {
			// A doubly-black node's sibling cannot be nil in a valid tree;
			// climbing repairs nothing, so stop defensively.
			break
		}
		wRed, err := rbIsRed(s, wID)
		if err != nil {
			return err
		}
		if wRed {
			w, err := rbMust(s, wID)
			if err != nil {
				return err
			}
			w.Red = false
			if err := s.setNode(wID, w); err != nil {
				return err
			}
			p, err = rbMust(s, xParent)
			if err != nil {
				return err
			}
			p.Red = true
			if err := s.setNode(xParent, p); err != nil {
				return err
			}
			if err := rbRotate(s, xParent, xIsLeft); err != nil {
				return err
			}
			p, err = rbMust(s, xParent)
			if err != nil {
				return err
			}
			if xIsLeft {
				wID = p.R
			} else {
				wID = p.L
			}
			if wID == "" {
				break
			}
		}
		w, err := rbMust(s, wID)
		if err != nil {
			return err
		}
		wlRed, err := rbIsRed(s, w.L)
		if err != nil {
			return err
		}
		wrRed, err := rbIsRed(s, w.R)
		if err != nil {
			return err
		}
		if !wlRed && !wrRed {
			w.Red = true
			if err := s.setNode(wID, w); err != nil {
				return err
			}
			xID = xParent
			xn, err := rbMust(s, xID)
			if err != nil {
				return err
			}
			xParent = xn.P
			continue
		}
		if xIsLeft {
			if !wrRed {
				if w.L != "" {
					wl, err := rbMust(s, w.L)
					if err != nil {
						return err
					}
					wl.Red = false
					if err := s.setNode(w.L, wl); err != nil {
						return err
					}
				}
				w.Red = true
				if err := s.setNode(wID, w); err != nil {
					return err
				}
				if err := rbRotate(s, wID, false); err != nil {
					return err
				}
				p, err = rbMust(s, xParent)
				if err != nil {
					return err
				}
				wID = p.R
				w, err = rbMust(s, wID)
				if err != nil {
					return err
				}
			}
			p, err = rbMust(s, xParent)
			if err != nil {
				return err
			}
			w.Red = p.Red
			if err := s.setNode(wID, w); err != nil {
				return err
			}
			p.Red = false
			if err := s.setNode(xParent, p); err != nil {
				return err
			}
			if w.R != "" {
				wr, err := rbMust(s, w.R)
				if err != nil {
					return err
				}
				wr.Red = false
				if err := s.setNode(w.R, wr); err != nil {
					return err
				}
			}
			if err := rbRotate(s, xParent, true); err != nil {
				return err
			}
		} else {
			if !wlRed {
				if w.R != "" {
					wr, err := rbMust(s, w.R)
					if err != nil {
						return err
					}
					wr.Red = false
					if err := s.setNode(w.R, wr); err != nil {
						return err
					}
				}
				w.Red = true
				if err := s.setNode(wID, w); err != nil {
					return err
				}
				if err := rbRotate(s, wID, true); err != nil {
					return err
				}
				p, err = rbMust(s, xParent)
				if err != nil {
					return err
				}
				wID = p.L
				w, err = rbMust(s, wID)
				if err != nil {
					return err
				}
			}
			p, err = rbMust(s, xParent)
			if err != nil {
				return err
			}
			w.Red = p.Red
			if err := s.setNode(wID, w); err != nil {
				return err
			}
			p.Red = false
			if err := s.setNode(xParent, p); err != nil {
				return err
			}
			if w.L != "" {
				wl, err := rbMust(s, w.L)
				if err != nil {
					return err
				}
				wl.Red = false
				if err := s.setNode(w.L, wl); err != nil {
					return err
				}
			}
			if err := rbRotate(s, xParent, false); err != nil {
				return err
			}
		}
		rootID, err = s.root()
		if err != nil {
			return err
		}
		xID = rootID
		break
	}
	if xID != "" {
		x, err := rbMust(s, xID)
		if err != nil {
			return err
		}
		if x.Red {
			x.Red = false
			return s.setNode(xID, x)
		}
	}
	return nil
}

// ---- Workload plumbing ----

// RBTree is the paper's RBTree micro-benchmark: every tree node is a DTM
// object; inserts and deletes perform full red-black rebalancing inside the
// transaction.
type RBTree struct {
	prefix string
	nextID atomic.Uint64
}

// NewRBTree builds an RBTree workload.
func NewRBTree(name string) *RBTree { return &RBTree{prefix: name} }

// Name implements Workload.
func (r *RBTree) Name() string { return "RBTree" }

func (r *RBTree) rootKey() proto.ObjectID { return proto.ObjectID(r.prefix + "/root") }

func (r *RBTree) newNodeID() proto.ObjectID {
	return proto.ObjectID(fmt.Sprintf("%s/n%d", r.prefix, r.nextID.Add(1)))
}

// Setup implements Workload: inserts every other key through the same
// red-black code over the in-memory store.
func (r *RBTree) Setup(p Params, _ *rand.Rand) []proto.ObjectCopy {
	m := newMapRBStore()
	for key := int64(0); key < int64(p.Objects); key += 2 {
		if err := rbInsert(m, key, r.newNodeID()); err != nil {
			panic(fmt.Sprintf("rbtree setup: %v", err)) // in-memory insert cannot fail
		}
	}
	copies := make([]proto.ObjectCopy, 0, len(m.nodes)+1)
	copies = append(copies, proto.ObjectCopy{ID: r.rootKey(), Version: 1, Val: proto.String(m.rootID)})
	for id, n := range m.nodes {
		copies = append(copies, proto.ObjectCopy{ID: id, Version: 1, Val: n})
	}
	return copies
}

// NewTxn implements Workload.
func (r *RBTree) NewTxn(rng *rand.Rand, p Params) (core.State, []core.Step) {
	steps := make([]core.Step, p.Ops)
	for i := range steps {
		key := int64(rng.IntN(p.Objects))
		switch {
		case rng.Float64() < p.ReadRatio:
			steps[i] = r.opStep(func(s rbStore) error {
				_, err := rbContains(s, key)
				return err
			})
		case rng.IntN(2) == 0:
			newID := r.newNodeID()
			steps[i] = r.opStep(func(s rbStore) error { return rbInsert(s, key, newID) })
		default:
			steps[i] = r.opStep(func(s rbStore) error { return rbDelete(s, key) })
		}
	}
	return core.NoState{}, steps
}

func (r *RBTree) opStep(op func(rbStore) error) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		s := newTxRBStore(tx, r.rootKey())
		if err := op(s); err != nil {
			return err
		}
		return s.flush()
	}
}

// Verify implements Workload: BST order, parent-pointer consistency, black
// root, no red-red edges, and uniform black height.
func (r *RBTree) Verify(p Params, read Oracle) error {
	m := newMapRBStore()
	rootV, ok := read(r.rootKey())
	if !ok {
		return fmt.Errorf("rbtree: missing root pointer")
	}
	m.rootID = proto.ObjectID(rootV.(proto.String))
	// Materialize reachable nodes.
	var walk func(id proto.ObjectID) error
	count := 0
	walk = func(id proto.ObjectID) error {
		if id == "" {
			return nil
		}
		if count++; count > p.Objects+8 {
			return fmt.Errorf("rbtree: more reachable nodes than possible keys; cycle?")
		}
		v, ok := read(id)
		if !ok {
			return fmt.Errorf("rbtree: dangling node %v", id)
		}
		n := v.(RBNode)
		m.nodes[id] = n
		if err := walk(n.L); err != nil {
			return err
		}
		return walk(n.R)
	}
	if err := walk(m.rootID); err != nil {
		return err
	}
	return rbCheck(m)
}

// rbCheck validates all red-black invariants of an in-memory tree.
func rbCheck(m *mapRBStore) error {
	if m.rootID == "" {
		return nil
	}
	root := m.nodes[m.rootID]
	if root.Red {
		return fmt.Errorf("rbtree: red root")
	}
	if root.P != "" {
		return fmt.Errorf("rbtree: root has parent %v", root.P)
	}
	var check func(id proto.ObjectID, lo, hi *int64) (int, error)
	check = func(id proto.ObjectID, lo, hi *int64) (int, error) {
		if id == "" {
			return 1, nil
		}
		n, ok := m.nodes[id]
		if !ok {
			return 0, fmt.Errorf("rbtree: dangling node %v", id)
		}
		if lo != nil && n.Key <= *lo {
			return 0, fmt.Errorf("rbtree: order violation at key %d", n.Key)
		}
		if hi != nil && n.Key >= *hi {
			return 0, fmt.Errorf("rbtree: order violation at key %d", n.Key)
		}
		for _, c := range []proto.ObjectID{n.L, n.R} {
			if c == "" {
				continue
			}
			cn, ok := m.nodes[c]
			if !ok {
				return 0, fmt.Errorf("rbtree: dangling child %v", c)
			}
			if cn.P != id {
				return 0, fmt.Errorf("rbtree: node %v has wrong parent %v (want %v)", c, cn.P, id)
			}
			if n.Red && cn.Red {
				return 0, fmt.Errorf("rbtree: red-red edge at key %d", n.Key)
			}
		}
		lh, err := check(n.L, lo, &n.Key)
		if err != nil {
			return 0, err
		}
		rh, err := check(n.R, &n.Key, hi)
		if err != nil {
			return 0, err
		}
		if lh != rh {
			return 0, fmt.Errorf("rbtree: black-height mismatch at key %d (%d vs %d)", n.Key, lh, rh)
		}
		if n.Red {
			return lh, nil
		}
		return lh + 1, nil
	}
	_, err := check(m.rootID, nil, nil)
	return err
}
