// Package decent implements a simplified DecentSTM (Bieniusa & Fuhrmann,
// IPDPS 2010): a fully decentralized, fully replicated multi-version DTM
// providing snapshot isolation. It is the paper's fault-tolerant comparison
// baseline in Figure 9.
//
// Every node replicates every object together with a bounded history of
// committed versions, each stamped with a global logical commit timestamp.
// Readers fix a snapshot timestamp on first read and thereafter select, per
// object, the newest version no newer than the snapshot — conflicting
// transactions "proceed as long as they can see a consistent snapshot", so
// read-only transactions never abort (unless the history has been pruned
// past their snapshot). Writers commit with a two-phase broadcast to every
// replica (lock + validate first-committer-wins, then install).
//
// The cost structure is what the paper measures: per-commit broadcasts to
// all N replicas (versus QR's ~N/2-node write quorum) plus history
// bookkeeping make DecentSTM slower than QR-DTM, while its full replication
// tolerates failures that destroy TFA.
package decent

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/dtm"
	"qrdtm/internal/proto"
)

// HistoryCap bounds how many committed versions each replica retains per
// object. Snapshots older than the oldest retained version abort.
const HistoryCap = 16

// ErrSnapshotTooOld reports a read whose snapshot predates the retained
// history (the transaction aborts and retries with a fresh snapshot).
var ErrSnapshotTooOld = errors.New("decent: snapshot predates retained history")

// Versioned is one committed version of an object.
type Versioned struct {
	Ts  uint64
	Val proto.Value
}

// ReadReq fetches an object's version history from one replica.
type ReadReq struct {
	Obj proto.ObjectID
}

// ReadRep carries the replica's retained history (oldest first) and clock.
type ReadRep struct {
	History []Versioned
	Clock   uint64
}

// LockItem names one written object and the snapshot version it was based
// on (first-committer-wins validation).
type LockItem struct {
	ID     proto.ObjectID
	BaseTs uint64
}

// LockReq try-locks the written objects at a replica.
type LockReq struct {
	Txn   proto.TxnID
	Items []LockItem
}

// LockRep is the vote plus the replica's clock (the committer derives the
// commit timestamp from the maximum over all replicas).
type LockRep struct {
	OK    bool
	Clock uint64
}

// InstallReq is phase two: install the writes at timestamp Ts (Commit) or
// just release the locks (!Commit).
type InstallReq struct {
	Txn    proto.TxnID
	Commit bool
	Ts     uint64
	Writes []proto.ObjectCopy
}

// InstallRep acknowledges an InstallReq.
type InstallRep struct{}

type record struct {
	history []Versioned // oldest first
	locked  bool
	locker  proto.TxnID
}

func (r *record) latest() uint64 {
	if len(r.history) == 0 {
		return 0
	}
	return r.history[len(r.history)-1].Ts
}

// Node is one DecentSTM replica.
type Node struct {
	ID    proto.NodeID
	mu    sync.Mutex
	objs  map[proto.ObjectID]*record
	clock atomic.Uint64
}

// NewNode builds an empty replica.
func NewNode(id proto.NodeID) *Node {
	return &Node{ID: id, objs: make(map[proto.ObjectID]*record)}
}

// Load installs objects at timestamp 1 (population).
func (n *Node) Load(copies []proto.ObjectCopy) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range copies {
		n.objs[c.ID] = &record{history: []Versioned{{Ts: 1, Val: cloneVal(c.Val)}}}
	}
	if n.clock.Load() < 1 {
		n.clock.Store(1)
	}
}

// Latest returns the newest committed value (test oracle).
func (n *Node) Latest(id proto.ObjectID) (Versioned, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.objs[id]
	if !ok || len(r.history) == 0 {
		return Versioned{}, false
	}
	v := r.history[len(r.history)-1]
	return Versioned{Ts: v.Ts, Val: cloneVal(v.Val)}, true
}

// Handle implements cluster.Handler.
func (n *Node) Handle(_ proto.NodeID, req any) any {
	switch m := req.(type) {
	case ReadReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		r, ok := n.objs[m.Obj]
		rep := ReadRep{Clock: n.clock.Load()}
		if ok {
			rep.History = make([]Versioned, len(r.history))
			for i, v := range r.history {
				rep.History[i] = Versioned{Ts: v.Ts, Val: cloneVal(v.Val)}
			}
		}
		return rep
	case LockReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, it := range m.Items {
			r, ok := n.objs[it.ID]
			if !ok {
				continue
			}
			if r.latest() > it.BaseTs || (r.locked && r.locker != m.Txn) {
				return LockRep{OK: false, Clock: n.clock.Load()}
			}
		}
		for _, it := range m.Items {
			r, ok := n.objs[it.ID]
			if !ok {
				r = &record{}
				n.objs[it.ID] = r
			}
			r.locked = true
			r.locker = m.Txn
		}
		return LockRep{OK: true, Clock: n.clock.Load()}
	case InstallReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, w := range m.Writes {
			r, ok := n.objs[w.ID]
			if !ok {
				r = &record{}
				n.objs[w.ID] = r
			}
			if m.Commit {
				// Installs can arrive out of timestamp order when commits
				// race on disjoint objects, so keep the history sorted.
				v := Versioned{Ts: m.Ts, Val: cloneVal(w.Val)}
				i := len(r.history)
				for i > 0 && r.history[i-1].Ts > v.Ts {
					i--
				}
				r.history = append(r.history, Versioned{})
				copy(r.history[i+1:], r.history[i:])
				r.history[i] = v
				if len(r.history) > HistoryCap {
					r.history = r.history[len(r.history)-HistoryCap:]
				}
			}
			if r.locked && r.locker == m.Txn {
				r.locked = false
				r.locker = 0
			}
		}
		if m.Commit {
			for {
				cur := n.clock.Load()
				if cur >= m.Ts || n.clock.CompareAndSwap(cur, m.Ts) {
					break
				}
			}
		}
		return InstallRep{}
	default:
		panic(fmt.Sprintf("decent: unknown request %T", req))
	}
}

// Cluster wires N replicas over a transport.
type Cluster struct {
	Nodes []*Node
	Trans cluster.Transport
	ids   atomic.Uint64
}

// NewCluster builds a DecentSTM cluster over the given transport.
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

// Load installs objects on every replica.
func (c *Cluster) Load(copies []proto.ObjectCopy) {
	for _, n := range c.Nodes {
		n.Load(copies)
	}
}

// System returns the runtime hosted at node host.
func (c *Cluster) System(host proto.NodeID) *System {
	return &System{c: c, host: host}
}

// System is one node's DecentSTM runtime.
type System struct {
	c    *Cluster
	host proto.NodeID
}

// Name implements dtm.System.
func (s *System) Name() string { return "DecentSTM" }

var errAbort = errors.New("decent: abort")

type txEntry struct {
	ts  uint64 // commit timestamp of the version this transaction observed
	val proto.Value
}

// Tx is a DecentSTM transaction.
type Tx struct {
	s        *System
	ctx      context.Context
	id       proto.TxnID
	snapshot uint64 // 0 until the first read pins it
	readset  map[proto.ObjectID]*txEntry
	writeset map[proto.ObjectID]*txEntry
}

// Atomic implements dtm.System.
func (s *System) Atomic(ctx context.Context, body func(dtm.Tx) error) error {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tx := &Tx{
			s:        s,
			ctx:      ctx,
			id:       proto.TxnID(s.c.ids.Add(1)),
			readset:  make(map[proto.ObjectID]*txEntry),
			writeset: make(map[proto.ObjectID]*txEntry),
		}
		err := body(tx)
		if err == nil {
			err = tx.commit()
		}
		switch {
		case err == nil:
			return nil
		case errors.Is(err, errAbort) || errors.Is(err, ErrSnapshotTooOld):
			d := time.Duration(1<<uint(min(attempt, 8))) * 10 * time.Microsecond
			time.Sleep(time.Duration(rand.Int64N(int64(d)) + 1))
			continue
		default:
			return err
		}
	}
}

// Read implements dtm.Tx: snapshot reads from one replica's history.
func (tx *Tx) Read(id proto.ObjectID) (proto.Value, error) {
	if e, ok := tx.writeset[id]; ok {
		return cloneVal(e.val), nil
	}
	if e, ok := tx.readset[id]; ok {
		return cloneVal(e.val), nil
	}
	e, err := tx.fetch(id)
	if err != nil {
		return nil, err
	}
	tx.readset[id] = e
	return cloneVal(e.val), nil
}

// Write implements dtm.Tx.
func (tx *Tx) Write(id proto.ObjectID, val proto.Value) error {
	if e, ok := tx.writeset[id]; ok {
		e.val = cloneVal(val)
		return nil
	}
	if e, ok := tx.readset[id]; ok {
		delete(tx.readset, id)
		e.val = cloneVal(val)
		tx.writeset[id] = e
		return nil
	}
	e, err := tx.fetch(id)
	if err != nil {
		return err
	}
	e.val = cloneVal(val)
	tx.writeset[id] = e
	return nil
}

// fetch reads an object's history from a replica (full replication keeps
// every replica complete, so one suffices; the host's own replica is used,
// mirroring DecentSTM's local-first reads) and selects the snapshot-visible
// version.
func (tx *Tx) fetch(id proto.ObjectID) (*txEntry, error) {
	resp, err := tx.s.c.Trans.Call(tx.ctx, tx.s.host, tx.s.host, ReadReq{Obj: id})
	if err != nil {
		return nil, err
	}
	rep := resp.(ReadRep)
	if tx.snapshot == 0 {
		// First read pins the snapshot at the replica's current time.
		tx.snapshot = rep.Clock
		if tx.snapshot == 0 {
			tx.snapshot = 1
		}
	}
	if len(rep.History) == 0 {
		return &txEntry{ts: 0, val: nil}, nil
	}
	// Newest version no newer than the snapshot.
	for i := len(rep.History) - 1; i >= 0; i-- {
		if rep.History[i].Ts <= tx.snapshot {
			return &txEntry{ts: rep.History[i].Ts, val: rep.History[i].Val}, nil
		}
	}
	return nil, ErrSnapshotTooOld
}

// commit broadcasts the two-phase commit to every replica. Read-only
// transactions commit locally: their snapshot is consistent by
// construction.
func (tx *Tx) commit() error {
	if len(tx.writeset) == 0 {
		return nil
	}
	items := make([]LockItem, 0, len(tx.writeset))
	writes := make([]proto.ObjectCopy, 0, len(tx.writeset))
	for id, e := range tx.writeset {
		items = append(items, LockItem{ID: id, BaseTs: e.ts})
		writes = append(writes, proto.ObjectCopy{ID: id, Val: cloneVal(e.val)})
	}
	all := allNodes(len(tx.s.c.Nodes))

	replies := cluster.Multicast(tx.ctx, tx.s.c.Trans, tx.s.host, all, LockReq{Txn: tx.id, Items: items})
	maxClock := uint64(0)
	ok := true
	for _, r := range replies {
		if r.Err != nil {
			ok = false
			continue
		}
		lr := r.Resp.(LockRep)
		if !lr.OK {
			ok = false
		}
		if lr.Clock > maxClock {
			maxClock = lr.Clock
		}
	}
	if !ok {
		cluster.Multicast(tx.ctx, tx.s.c.Trans, tx.s.host, all, InstallReq{Txn: tx.id, Commit: false, Writes: writes})
		return errAbort
	}
	cluster.Multicast(tx.ctx, tx.s.c.Trans, tx.s.host, all, InstallReq{
		Txn: tx.id, Commit: true, Ts: maxClock + 1, Writes: writes,
	})
	return nil
}

func allNodes(n int) []proto.NodeID {
	out := make([]proto.NodeID, n)
	for i := range out {
		out[i] = proto.NodeID(i)
	}
	return out
}

func cloneVal(v proto.Value) proto.Value {
	if v == nil {
		return nil
	}
	return v.CloneValue()
}
