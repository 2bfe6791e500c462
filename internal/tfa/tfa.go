// Package tfa implements a single-object-copy DTM driven by the Transaction
// Forwarding Algorithm (Saad & Ravindran's TFA, the algorithm behind
// HyFlow), which the paper uses as its non-fault-tolerant comparison
// baseline in Figure 9.
//
// Every object lives on exactly one home node (by hash). Each node keeps a
// scalar logical clock, advanced by local commits. A transaction starts at
// its hosting node's clock value (rv). When a remote read observes a home
// clock ahead of rv, the transaction "forwards": it revalidates its read set
// at the owners and, if nothing changed, advances rv to the observed clock —
// otherwise it aborts early. Commit write-locks the written objects at their
// owners (two phases), revalidates reads, installs the writes, and bumps the
// clocks.
//
// All traffic is unicast to single owners, which is exactly why HyFlow
// outperforms quorum-replicated QR-DTM in the no-failure experiments (5 ms
// unicast vs 30 ms multicast in the paper's testbed) — and why it cannot
// survive the loss of a node.
package tfa

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/dtm"
	"qrdtm/internal/proto"
)

// ErrTooManyRetries mirrors core.ErrTooManyRetries for the TFA system.
var ErrTooManyRetries = errors.New("tfa: transaction exceeded retry limit")

// Wire messages, carried by the in-memory transport.

// ReadReq fetches an object from its home node.
type ReadReq struct {
	Txn proto.TxnID
	Obj proto.ObjectID
}

// ReadRep returns the object copy and the home node's clock.
type ReadRep struct {
	Copy  proto.ObjectCopy
	Clock uint64
}

// ValidateReq asks a home node to confirm a set of (object, version) pairs
// are still current and unlocked.
type ValidateReq struct {
	Txn   proto.TxnID
	Items []proto.DataItem
}

// ValidateRep is the validation verdict. Invalid lists the indices of the
// stale items (N-TFA uses them to find the shallowest transaction in the
// nesting hierarchy that must abort).
type ValidateRep struct {
	OK      bool
	Invalid []int32
}

// LockReq try-locks objects at their home, validating versions.
type LockReq struct {
	Txn    proto.TxnID
	Writes []proto.ObjectCopy // Version = version at acquisition
}

// LockRep is the try-lock verdict.
type LockRep struct {
	OK bool
}

// CommitReq installs writes at their home, bumps the clock, and unlocks.
type CommitReq struct {
	Txn    proto.TxnID
	Writes []proto.ObjectCopy // Version = version at acquisition; home assigns the new one
}

// CommitRep returns the home's clock after the commit.
type CommitRep struct {
	Clock uint64
}

// UnlockReq releases locks after a failed commit.
type UnlockReq struct {
	Txn proto.TxnID
	Ids []proto.ObjectID
}

// UnlockRep acknowledges an UnlockReq.
type UnlockRep struct{}

type tfaRecord struct {
	copyv  proto.ObjectCopy
	locked bool
	locker proto.TxnID
}

// Node is one TFA node: the single authoritative copy of its objects plus
// the node's logical clock.
type Node struct {
	ID    proto.NodeID
	mu    sync.Mutex
	objs  map[proto.ObjectID]*tfaRecord
	clock atomic.Uint64
}

// NewNode builds an empty TFA node.
func NewNode(id proto.NodeID) *Node {
	return &Node{ID: id, objs: make(map[proto.ObjectID]*tfaRecord)}
}

// Load installs objects (population; no concurrency control). The node's
// clock advances to the highest loaded version so the next commit cannot
// reuse an existing version number.
func (n *Node) Load(copies []proto.ObjectCopy) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range copies {
		n.objs[c.ID] = &tfaRecord{copyv: c.Clone()}
		for {
			cur := n.clock.Load()
			if cur >= uint64(c.Version) || n.clock.CompareAndSwap(cur, uint64(c.Version)) {
				break
			}
		}
	}
}

// Get returns the committed copy (test oracle).
func (n *Node) Get(id proto.ObjectID) (proto.ObjectCopy, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.objs[id]
	if !ok {
		return proto.ObjectCopy{ID: id}, false
	}
	return r.copyv.Clone(), true
}

// Handle implements cluster.Handler.
func (n *Node) Handle(_ proto.NodeID, req any) any {
	switch m := req.(type) {
	case ReadReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		r, ok := n.objs[m.Obj]
		if !ok {
			r = &tfaRecord{copyv: proto.ObjectCopy{ID: m.Obj}}
			n.objs[m.Obj] = r
		}
		return ReadRep{Copy: r.copyv.Clone(), Clock: n.clock.Load()}
	case ValidateReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		rep := ValidateRep{OK: true}
		for i, it := range m.Items {
			r, ok := n.objs[it.ID]
			if !ok {
				continue
			}
			if r.copyv.Version > it.Version || (r.locked && r.locker != m.Txn) {
				rep.OK = false
				rep.Invalid = append(rep.Invalid, int32(i))
			}
		}
		return rep
	case LockReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, w := range m.Writes {
			r, ok := n.objs[w.ID]
			if !ok {
				continue
			}
			if r.copyv.Version > w.Version || (r.locked && r.locker != m.Txn) {
				return LockRep{OK: false}
			}
		}
		for _, w := range m.Writes {
			r, ok := n.objs[w.ID]
			if !ok {
				r = &tfaRecord{copyv: proto.ObjectCopy{ID: w.ID}}
				n.objs[w.ID] = r
			}
			r.locked = true
			r.locker = m.Txn
		}
		return LockRep{OK: true}
	case CommitReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		clk := n.clock.Add(1)
		for _, w := range m.Writes {
			r, ok := n.objs[w.ID]
			if !ok {
				r = &tfaRecord{copyv: proto.ObjectCopy{ID: w.ID}}
				n.objs[w.ID] = r
			}
			c := w.Clone()
			c.Version = proto.Version(clk)
			r.copyv = c
			if r.locked && r.locker == m.Txn {
				r.locked = false
				r.locker = 0
			}
		}
		return CommitRep{Clock: clk}
	case UnlockReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, id := range m.Ids {
			if r, ok := n.objs[id]; ok && r.locked && r.locker == m.Txn {
				r.locked = false
				r.locker = 0
			}
		}
		return UnlockRep{}
	default:
		panic(fmt.Sprintf("tfa: unknown request %T", req))
	}
}

// System is a TFA deployment: N nodes, single-copy objects, one runtime per
// hosting node.
type System struct {
	nodes  []*Node
	trans  cluster.Transport
	host   proto.NodeID
	ids    *atomic.Uint64
	maxTry int
}

// Cluster wires N TFA nodes over a transport and exposes per-node systems.
type Cluster struct {
	Nodes []*Node
	Trans cluster.Transport
	ids   atomic.Uint64
}

// NewCluster builds a TFA cluster over the given transport, registering the
// node handlers when the transport is a MemTransport.
func NewCluster(n int, trans *cluster.MemTransport) *Cluster {
	c := &Cluster{Trans: trans}
	for i := 0; i < n; i++ {
		node := NewNode(proto.NodeID(i))
		c.Nodes = append(c.Nodes, node)
		trans.Register(proto.NodeID(i), node.Handle)
	}
	c.ids.Store(1)
	return c
}

// Load installs each object at its home node.
func (c *Cluster) Load(copies []proto.ObjectCopy) {
	byHome := make(map[proto.NodeID][]proto.ObjectCopy)
	for _, cp := range copies {
		h := Home(cp.ID, len(c.Nodes))
		byHome[h] = append(byHome[h], cp)
	}
	for h, cps := range byHome {
		c.Nodes[h].Load(cps)
	}
}

// System returns the TFA runtime hosted at node host.
func (c *Cluster) System(host proto.NodeID) *System {
	return &System{nodes: c.Nodes, trans: c.Trans, host: host, ids: &c.ids, maxTry: 0}
}

// Home maps an object to its home node.
func Home(id proto.ObjectID, n int) proto.NodeID {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return proto.NodeID(int(h.Sum32()) % n)
}

// Name implements dtm.System.
func (s *System) Name() string { return "HyFlow(TFA)" }

type txEntry struct {
	copyv proto.ObjectCopy
	home  proto.NodeID
	depth int // nesting depth of the (sub)transaction that acquired it
}

// Tx is a TFA transaction — possibly a closed-nested subtransaction
// (N-TFA, see nested.go). The forwarding clock rv lives on the root.
type Tx struct {
	s        *System
	ctx      context.Context
	id       proto.TxnID
	rv       uint64
	root     *Tx // nil on roots
	parent   *Tx // nil on roots
	depth    int
	readset  map[proto.ObjectID]*txEntry
	writeset map[proto.ObjectID]*txEntry
}

var errAbort = errors.New("tfa: abort")

// Atomic implements dtm.System.
func (s *System) Atomic(ctx context.Context, body func(dtm.Tx) error) error {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.maxTry > 0 && attempt >= s.maxTry {
			return ErrTooManyRetries
		}
		tx := &Tx{
			s:        s,
			ctx:      ctx,
			id:       proto.TxnID(s.ids.Add(1)),
			rv:       s.hostClock(),
			readset:  make(map[proto.ObjectID]*txEntry),
			writeset: make(map[proto.ObjectID]*txEntry),
		}
		err := body(tx)
		if err == nil {
			err = tx.commit()
		}
		var at errAbortAt
		switch {
		case err == nil:
			return nil
		case errors.Is(err, errAbort), errors.As(err, &at) && at.depth == 0:
			backoff(attempt)
			continue
		default:
			return err
		}
	}
}

func (s *System) hostClock() uint64 {
	return s.nodes[s.host].clock.Load()
}

func backoff(attempt int) {
	d := time.Duration(1<<uint(min(attempt, 8))) * 10 * time.Microsecond
	time.Sleep(time.Duration(rand.Int64N(int64(d)) + 1))
}

// Read implements dtm.Tx.
func (tx *Tx) Read(id proto.ObjectID) (proto.Value, error) {
	if e, ok := tx.lookupChain(id); ok {
		return cloneVal(e.copyv.Val), nil
	}
	e, err := tx.fetch(id)
	if err != nil {
		return nil, err
	}
	tx.readset[id] = e
	return cloneVal(e.copyv.Val), nil
}

// Write implements dtm.Tx.
func (tx *Tx) Write(id proto.ObjectID, val proto.Value) error {
	if e, ok := tx.writeset[id]; ok {
		e.copyv.Val = cloneVal(val)
		return nil
	}
	if e, ok := tx.readset[id]; ok {
		delete(tx.readset, id)
		e.copyv.Val = cloneVal(val)
		tx.writeset[id] = e
		return nil
	}
	if e, ok := tx.lookupChain(id); ok {
		// An ancestor holds the object: buffer the write privately; the
		// merge on subtransaction commit propagates it upward.
		ne := &txEntry{
			copyv: proto.ObjectCopy{ID: id, Version: e.copyv.Version, Val: cloneVal(val)},
			home:  e.home,
			depth: tx.depth,
		}
		tx.writeset[id] = ne
		return nil
	}
	e, err := tx.fetch(id)
	if err != nil {
		return err
	}
	e.copyv.Val = cloneVal(val)
	tx.writeset[id] = e
	return nil
}

// fetch reads an object from its home and performs transaction forwarding
// when the home clock has advanced past the root's rv. A failed forwarding
// validation aborts the shallowest owner of a stale object (N-TFA).
func (tx *Tx) fetch(id proto.ObjectID) (*txEntry, error) {
	home := Home(id, len(tx.s.nodes))
	resp, err := tx.s.trans.Call(tx.ctx, tx.s.host, home, ReadReq{Txn: tx.id, Obj: id})
	if err != nil {
		return nil, fmt.Errorf("tfa: read %v from %v: %w (TFA has no replicas to fail over to)", id, home, err)
	}
	rep := resp.(ReadRep)
	root := tx.rootTx()
	if rep.Clock > root.rv {
		// Forward: the home has seen commits after our start. Revalidate
		// the whole hierarchy, then adopt the newer clock.
		ok, abortDepth, err := tx.validateChain()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, errAbortAt{depth: abortDepth}
		}
		root.rv = rep.Clock
	}
	return &txEntry{copyv: rep.Copy, home: home, depth: tx.depth}, nil
}

// validateReadSet checks the whole footprint at its homes (root commits;
// by then every subtransaction has merged, so the chain is just the root).
func (tx *Tx) validateReadSet() (bool, error) {
	ok, _, err := tx.validateChain()
	return ok, err
}

// commit runs TFA's commit: lock written objects at their homes (in global
// order, all-or-nothing per home), revalidate the read set, install, unlock.
func (tx *Tx) commit() error {
	if len(tx.writeset) == 0 {
		if ok, err := tx.validateReadSet(); err != nil {
			return err
		} else if !ok {
			return errAbort
		}
		return nil
	}

	byHome := make(map[proto.NodeID][]proto.ObjectCopy)
	for id, e := range tx.writeset {
		c := e.copyv.Clone()
		c.ID = id
		byHome[e.home] = append(byHome[e.home], c)
	}
	homes := make([]proto.NodeID, 0, len(byHome))
	for h := range byHome {
		homes = append(homes, h)
	}
	sort.Slice(homes, func(i, j int) bool { return homes[i] < homes[j] })

	var locked []proto.NodeID
	unlockAll := func() {
		for _, h := range locked {
			ids := make([]proto.ObjectID, 0, len(byHome[h]))
			for _, w := range byHome[h] {
				ids = append(ids, w.ID)
			}
			_, _ = tx.s.trans.Call(tx.ctx, tx.s.host, h, UnlockReq{Txn: tx.id, Ids: ids})
		}
	}

	for _, h := range homes {
		resp, err := tx.s.trans.Call(tx.ctx, tx.s.host, h, LockReq{Txn: tx.id, Writes: byHome[h]})
		if err != nil {
			unlockAll()
			return err
		}
		if !resp.(LockRep).OK {
			unlockAll()
			return errAbort
		}
		locked = append(locked, h)
	}

	if ok, err := tx.validateReadSet(); err != nil {
		unlockAll()
		return err
	} else if !ok {
		unlockAll()
		return errAbort
	}

	for _, h := range homes {
		if _, err := tx.s.trans.Call(tx.ctx, tx.s.host, h, CommitReq{Txn: tx.id, Writes: byHome[h]}); err != nil {
			// A crash mid-install loses the single copy: TFA is not
			// fault-tolerant, which is the paper's point.
			return fmt.Errorf("tfa: commit at %v: %w", h, err)
		}
	}
	return nil
}

func cloneVal(v proto.Value) proto.Value {
	if v == nil {
		return nil
	}
	return v.CloneValue()
}
