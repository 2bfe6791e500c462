// Package server implements the node-side of the QR/QR-CN/QR-CHK protocols:
// a Replica owns one versioned store and answers read(+Rqv), prepare and
// decide messages. The same replica serves flat, closed-nested and
// checkpointed transactions — the differences live entirely on the client
// side (internal/core) and in the owner metadata carried by requests.
package server

import (
	"fmt"
	"sync/atomic"

	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/store"
	"qrdtm/internal/wal"
)

// Metrics counts protocol events on one replica. All fields are updated
// atomically; read them with the Snapshot method.
type Metrics struct {
	Reads           atomic.Uint64
	ReadAborts      atomic.Uint64 // reads denied by Rqv validation
	Prepares        atomic.Uint64
	PrepareRejects  atomic.Uint64
	CommitDecisions atomic.Uint64
	AbortDecisions  atomic.Uint64
}

// MetricsSnapshot is a plain-value copy of Metrics.
type MetricsSnapshot struct {
	Reads           uint64
	ReadAborts      uint64
	Prepares        uint64
	PrepareRejects  uint64
	CommitDecisions uint64
	AbortDecisions  uint64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Reads:           m.Reads.Load(),
		ReadAborts:      m.ReadAborts.Load(),
		Prepares:        m.Prepares.Load(),
		PrepareRejects:  m.PrepareRejects.Load(),
		CommitDecisions: m.CommitDecisions.Load(),
		AbortDecisions:  m.AbortDecisions.Load(),
	}
}

// Replica is one QR-DTM node: a versioned object store plus the protocol
// message handlers. Its Handle method satisfies cluster.Handler.
type Replica struct {
	ID      proto.NodeID
	st      *store.Store
	metrics Metrics
	obs     *obs.Registry // nil disables service-time histograms

	// smap is the shard map this replica serves under (nil until one is
	// installed — the unsharded default, which owns everything). ownShard
	// caches the shard this node belongs to as ShardID+1 (0 = none/unsharded)
	// for span tagging.
	smap     atomic.Pointer[proto.ShardMap]
	ownShard atomic.Int64

	// dur is the persistence state (WAL, catch-up cursors); nil runs the
	// replica in-memory as before. See durable.go.
	dur *durable
}

// New builds a replica for node id with an empty store.
func New(id proto.NodeID) *Replica {
	r := &Replica{ID: id, st: store.New()}
	// The store consults the replica's current map for every validated item:
	// a copy of an object that migrated away is frozen, not authoritative.
	r.st.SetOwnership(r.ownsObj)
	return r
}

// ownsObj reports whether this node may serve obj under the current map.
func (r *Replica) ownsObj(obj proto.ObjectID) bool {
	m := r.smap.Load()
	return m == nil || m.Owns(r.ID, obj)
}

// ShardMap returns the map this replica holds (zero map when unsharded).
func (r *Replica) ShardMap() proto.ShardMap {
	if m := r.smap.Load(); m != nil {
		return *m
	}
	return proto.ShardMap{}
}

// SetShardMap installs m if it is newer than the held map (idempotent;
// duplicate and out-of-order pushes converge on the highest epoch). It
// returns the epoch held afterwards.
func (r *Replica) SetShardMap(m proto.ShardMap) uint64 {
	for {
		cur := r.smap.Load()
		if cur != nil && cur.Epoch >= m.Epoch {
			return cur.Epoch
		}
		c := m.Clone()
		if r.smap.CompareAndSwap(cur, &c) {
			own := int64(0)
			for _, s := range c.Shards {
				if c.Member(s.ID, r.ID) {
					own = int64(s.ID) + 1
					break
				}
			}
			r.ownShard.Store(own)
			return c.Epoch
		}
	}
}

// tagShard marks a serve span with this node's own shard (sharded runs only).
func (r *Replica) tagShard(sp *obs.ActiveSpan) {
	if own := r.ownShard.Load(); own > 0 {
		sp.SetShard(proto.ShardID(own - 1))
	}
}

// WithObs attaches an observability registry recording per-request service
// time (obs.SiteServeRead / obs.SiteServePrepare) and returns the replica.
// Attach before serving; the field is read unsynchronized on the hot path.
func (r *Replica) WithObs(reg *obs.Registry) *Replica {
	r.obs = reg
	return r
}

// Obs returns the replica's observability registry (nil when disabled).
func (r *Replica) Obs() *obs.Registry { return r.obs }

// Store exposes the replica's object table (tests, bootstrap and tooling).
func (r *Replica) Store() *store.Store { return r.st }

// Metrics exposes the replica's protocol counters.
func (r *Replica) Metrics() *Metrics { return &r.metrics }

// Handle dispatches one protocol message. Unknown message types panic: a
// type confusion between client and server is a programming error, not a
// runtime condition.
//
// The four messages of the transaction path — read, batched read, prepare,
// decide — are served by their own small functions, and everything else
// (bootstrap, reconfiguration, catch-up, trace collection) by handleAdmin,
// so the hot path's stack frame is not sized by the cold one's.
//
// Delivery contract: with the cluster layer's RetryTransport (and
// FaultTransport's duplicate injection) a request may be delivered more than
// once — a reply lost to a connection reset is retried by the client even
// though the first delivery was applied. Every mutating handler is therefore
// idempotent: a re-delivered PrepareReq re-votes yes because the objects are
// already protected by the same transaction; Commit only installs versions
// strictly newer than the stored one; Abort and Release only undo the named
// transaction's own acquisitions.
func (r *Replica) Handle(_ proto.NodeID, req any) any {
	switch m := req.(type) {
	case proto.ReadReq:
		return r.serveRead(m)
	case proto.BatchReadReq:
		return r.serveBatchRead(m)
	case proto.PrepareReq:
		return r.servePrepare(m)
	case proto.DecideReq:
		return r.serveDecide(m)
	default:
		return r.handleAdmin(req)
	}
}

// serveRead answers one ReadReq under its serve span and service-time site.
func (r *Replica) serveRead(m proto.ReadReq) proto.ReadRep {
	sp := r.obs.StartRemoteSpan(proto.SpanServeRead, r.ID, m.TC)
	r.tagShard(&sp)
	t0 := r.obs.Start()
	rep := r.handleRead(m)
	r.obs.ObserveSince(obs.SiteServeRead, t0)
	sp.SetTxn(m.Txn)
	sp.SetObj(m.Obj)
	sp.SetOK(rep.OK)
	if rep.OK {
		sp.SetVersion(rep.Copy.Version)
		r.obs.HeatRead(m.Obj)
	} else {
		r.obs.HeatConflict(m.Obj)
		// The denial's routing answer: which owner depth / checkpoint
		// epoch this replica wants aborted.
		sp.SetDepth(rep.AbortDepth)
		sp.SetChk(rep.AbortChk)
		switch {
		case rep.WrongShard:
			sp.SetNote("wrong-shard")
		case rep.LockOnly:
			sp.SetNote("lock-only")
		}
	}
	sp.End()
	return rep
}

// serveBatchRead answers one BatchReadReq under its serve span.
func (r *Replica) serveBatchRead(m proto.BatchReadReq) proto.BatchReadRep {
	sp := r.obs.StartRemoteSpan(proto.SpanServeRead, r.ID, m.TC)
	r.tagShard(&sp)
	t0 := r.obs.Start()
	rep := r.handleBatchRead(m)
	r.obs.ObserveSince(obs.SiteServeRead, t0)
	sp.SetTxn(m.Txn)
	if len(m.Objs) == 1 {
		sp.SetObj(m.Objs[0]) // single-object batches stay greppable like plain reads
	}
	sp.SetOK(rep.OK)
	if rep.OK {
		for _, c := range rep.Copies {
			sp.AddItem(c.ID, c.Version)
			r.obs.HeatRead(c.ID)
		}
		if len(rep.Copies) == 1 {
			sp.SetVersion(rep.Copies[0].Version)
		}
		if len(rep.Prefetch) > 0 && sp.Active() {
			sp.SetNote(fmt.Sprintf("prefetch=%d", len(rep.Prefetch)))
		}
	} else {
		sp.SetDepth(rep.AbortDepth)
		sp.SetChk(rep.AbortChk)
		switch {
		case rep.WrongShard:
			sp.SetNote("wrong-shard")
		case rep.NeedFull:
			sp.SetNote("need-full")
		case rep.LockOnly:
			sp.SetNote("lock-only")
		}
	}
	sp.End()
	return rep
}

// servePrepare votes on one PrepareReq, logging a yes before it is acked.
func (r *Replica) servePrepare(m proto.PrepareReq) proto.PrepareRep {
	sp := r.obs.StartRemoteSpan(proto.SpanServePrepare, r.ID, m.TC)
	r.tagShard(&sp)
	r.metrics.Prepares.Add(1)
	if !r.ownsPrepare(m) {
		// This node is not (or no longer) the home of part of the
		// footprint — stale client map or migration fence. Vote no
		// without taking any locks; the client refreshes and re-routes.
		r.metrics.PrepareRejects.Add(1)
		sp.SetTxn(m.Txn)
		sp.SetOK(false)
		sp.SetNote("wrong-shard")
		sp.End()
		return proto.PrepareRep{OK: false, WrongShard: true}
	}
	t0 := r.obs.Start()
	ok := r.st.PrepareOpen(m.Txn, m.Reads, m.Writes, m.AbsLocks, m.Owner)
	if ok && r.dur != nil {
		// Log before ack: a yes vote is a promise the replica must keep
		// across kill -9. If it cannot be made durable, undo the
		// acquisitions (protections and abstract locks) and vote no.
		if err := r.dur.w.Append(wal.KindPrepare, m); err != nil {
			r.st.Abort(m.Txn, writeIDs(m.Writes))
			ok = false
		}
	}
	r.obs.ObserveSince(obs.SiteServePrepare, t0)
	if !ok {
		r.metrics.PrepareRejects.Add(1)
	}
	sp.SetTxn(m.Txn)
	sp.SetOK(ok)
	sp.End()
	return proto.PrepareRep{OK: ok}
}

// serveDecide applies one commit or abort decision. Decisions are always
// accepted, ownership or not: an in-flight 2PC that prepared here before a
// migration fence must still be able to release its locks (or install its
// writes) at this member.
func (r *Replica) serveDecide(m proto.DecideReq) proto.DecideRep {
	sp := r.obs.StartRemoteSpan(proto.SpanServeDecide, r.ID, m.TC)
	r.tagShard(&sp)
	if m.Commit {
		r.metrics.CommitDecisions.Add(1)
		r.st.Commit(m.Txn, m.Writes)
		for _, w := range m.Writes {
			sp.AddItem(w.ID, w.Version)
			r.obs.HeatWrite(w.ID)
		}
	} else {
		r.metrics.AbortDecisions.Add(1)
		r.st.Abort(m.Txn, writeIDs(m.Writes))
	}
	// Log before ack: a restarted replica must re-reach this decision's
	// outcome. A flush failure is sticky in the WAL (and coordinators
	// ignore decide replies), so the error is not actionable here.
	_ = r.walAppend(wal.KindDecide, m)
	sp.SetTxn(m.Txn)
	sp.SetOK(m.Commit)
	sp.End()
	return proto.DecideRep{}
}

// writeIDs lists the object ids of a write set.
func writeIDs(writes []proto.ObjectCopy) []proto.ObjectID {
	ids := make([]proto.ObjectID, len(writes))
	for i, w := range writes {
		ids[i] = w.ID
	}
	return ids
}

// handleAdmin serves every message off the transaction path.
func (r *Replica) handleAdmin(req any) any {
	switch m := req.(type) {
	case proto.ReleaseReq:
		sp := r.obs.StartRemoteSpan(proto.SpanServeRelease, r.ID, m.TC)
		r.st.ReleaseAbstract(m.Owner)
		sp.SetTxn(m.Owner)
		sp.SetOK(true)
		sp.End()
		return proto.ReleaseRep{}
	case proto.LoadReq:
		r.st.Load(m.Objects)
		_ = r.walAppend(wal.KindLoad, m)
		return proto.LoadRep{}
	case proto.DumpReq:
		c, ok := r.st.Get(m.Obj)
		return proto.DumpRep{OK: ok, Copy: c}
	case proto.TraceDumpReq:
		return proto.TraceDumpRep{Node: r.ID, Spans: r.obs.Spans().Spans()}
	case proto.ShardMapReq:
		return proto.ShardMapRep{Map: r.ShardMap()}
	case proto.MapUpdateReq:
		epoch := r.SetShardMap(m.Map)
		if epoch == m.Map.Epoch {
			_ = r.walAppend(wal.KindMap, m)
		}
		return proto.MapUpdateRep{Epoch: epoch}
	case proto.SlotDumpReq:
		copies, protected := r.st.DumpSlots(m.Slots)
		return proto.SlotDumpRep{Copies: copies, Protected: protected}
	case proto.InstallReq:
		n := r.st.InstallNewer(m.Copies)
		if n > 0 {
			_ = r.walAppend(wal.KindInstall, m)
		}
		return proto.InstallRep{Installed: n}
	case proto.LogTailReq:
		return r.handleLogTail(m)
	default:
		panic("server: unknown request type")
	}
}

// ownsPrepare reports whether this node is the current home of every object
// (and abstract lock — they route by name, like objects) in a prepare.
func (r *Replica) ownsPrepare(m proto.PrepareReq) bool {
	smap := r.smap.Load()
	if smap == nil || !smap.Sharded() {
		return true
	}
	for _, it := range m.Reads {
		if !smap.Owns(r.ID, it.ID) {
			return false
		}
	}
	for _, w := range m.Writes {
		if !smap.Owns(r.ID, w.ID) {
			return false
		}
	}
	for _, l := range m.AbsLocks {
		if !smap.Owns(r.ID, proto.ObjectID(l)) {
			return false
		}
	}
	return true
}

// handleRead performs read-quorum validation (when the request carries a
// data set) followed by the object fetch, per Algorithm 2's remote section.
//
// Ownership rules (sharded runs): a fetch of an object not homed here is a
// hard wrong-shard denial — the client must re-route. A validation-only
// probe (empty Obj) is the commit-time certification of one shard's slice of
// a footprint, so every item must be homed here: any that is not is also a
// hard denial (the client refilters under a fresh map and re-probes).
// Footprint items of *fetch* requests, by contrast, may legitimately name
// other shards' objects (the global footprint log ships everywhere); the
// store skips ones it knows but no longer owns and flags the advisory, which
// is only propagated on success so it never masks a real conflict.
func (r *Replica) handleRead(m proto.ReadReq) proto.ReadRep {
	r.metrics.Reads.Add(1)
	if m.Obj == "" { // validation-only probe
		for _, it := range m.DataSet {
			if !r.ownsObj(it.ID) {
				return proto.ReadRep{OK: false, WrongShard: true, AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}
			}
		}
	} else if !r.ownsObj(m.Obj) {
		return proto.ReadRep{OK: false, WrongShard: true, AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}
	}
	advisory := false
	if m.DataSet != nil {
		res := r.st.Validate(m.Txn, m.DataSet)
		if !res.OK {
			r.metrics.ReadAborts.Add(1)
			return proto.ReadRep{OK: false, AbortDepth: res.AbortDepth, AbortChk: res.AbortChk, LockOnly: res.LockOnly}
		}
		advisory = res.WrongShard
	}
	if m.Obj == "" {
		return proto.ReadRep{OK: true, WrongShard: advisory, AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}
	}
	copyv := r.st.Read(m.Txn, m.Obj, m.Write, m.Depth == 0)
	return proto.ReadRep{OK: true, Copy: copyv, WrongShard: advisory, AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}
}

// handleBatchRead is handleRead for the multi-object, delta-validated path:
// one incremental Rqv pass over the whole accumulated footprint (the store
// reconciles the shipped suffix into its per-transaction session first),
// then every requested object fetched under the same metrics and PR/PW
// recording rules as a single read. NeedFull denials are a resync signal,
// not a conflict, so they don't count as read aborts. An OK reply also
// carries the objects the fetched copies link to (Store.Linked), which the
// client may use in place of later read rounds.
// Ownership rules mirror handleRead: every *requested* object must be homed
// here (hard wrong-shard denial otherwise), while disowned items inside the
// validation session are skipped by the store and surface as an advisory on
// success only.
func (r *Replica) handleBatchRead(m proto.BatchReadReq) proto.BatchReadRep {
	r.metrics.Reads.Add(1)
	for _, id := range m.Objs {
		if !r.ownsObj(id) {
			return proto.BatchReadRep{WrongShard: true, AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}
		}
	}
	advisory := false
	if m.Rqv {
		res, needFull := r.st.ValidateDelta(m.Txn, m.From, m.Delta)
		if needFull {
			return proto.BatchReadRep{NeedFull: true, AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}
		}
		if !res.OK {
			r.metrics.ReadAborts.Add(1)
			return proto.BatchReadRep{AbortDepth: res.AbortDepth, AbortChk: res.AbortChk, LockOnly: res.LockOnly}
		}
		advisory = res.WrongShard
	}
	copies := make([]proto.ObjectCopy, len(m.Objs))
	for i, id := range m.Objs {
		copies[i] = r.st.Read(m.Txn, id, m.Write, m.Depth == 0)
	}
	return proto.BatchReadRep{OK: true, Copies: copies, Prefetch: r.st.Linked(copies),
		WrongShard: advisory, AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}
}
