package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

// isCtxErr reports whether err is (or wraps) a context error — the typed
// identity the transports now preserve, letting the engine tell "my caller
// gave up" apart from "the replica is unreachable". Only the latter may
// trigger quorum reconfiguration.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// sleepCtx sleeps for d unless the context is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errWrongShard reports that a quorum member rejected a round because some
// requested object is not (or is no longer) homed on its shard — the client's
// shard map is stale, or a migration is fencing the object. The caller
// refreshes the map, regroups by the fresh placement, and retries.
var errWrongShard = errors.New("core: wrong shard")

// wrongShardRetries bounds how many refresh-and-retry rounds a request rides
// out before giving up. Migrations fence reads at both ends until the
// handover epoch, so the budget must outlast a slot drain (many round trips),
// not just a single map push.
const wrongShardRetries = 400

// wrongShardPause paces wrong-shard retries: quick at first (a fresh map
// lands in one round trip), backing off to a coarse poll while a migration
// drains.
func wrongShardPause(n int) time.Duration {
	d := time.Duration(n/8+1) * time.Millisecond
	if d > 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

// groupByShard partitions ids by their current shard, preserving first-seen
// shard order so retries stay deterministic.
func groupByShard(rt *Runtime, ids []proto.ObjectID) (map[proto.ShardID][]proto.ObjectID, []proto.ShardID) {
	groups := make(map[proto.ShardID][]proto.ObjectID)
	var order []proto.ShardID
	for _, id := range ids {
		s := rt.shardFor(id)
		if _, ok := groups[s]; !ok {
			order = append(order, s)
		}
		groups[s] = append(groups[s], id)
	}
	return groups, order
}

// entry is one element of a transaction's read- or write-set: the acquired
// copy plus the ownership metadata Rqv needs.
type entry struct {
	copyv      proto.ObjectCopy // Version = version at acquisition
	ownerDepth int
	ownerChk   int
}

func (e *entry) clone() *entry {
	out := *e
	out.copyv = e.copyv.Clone()
	return &out
}

// abortSignal is the panic payload that unwinds an aborted transaction to
// the retry loop that owns the abort target — the Go analogue of the Java
// exceptions (closed nesting) and continuations (checkpointing) the paper's
// implementation uses.
type abortSignal struct {
	depth int // nesting depth to retry (0 = root)
	chk   int // checkpoint epoch to roll back to; proto.NoChk outside QR-CHK
}

// throwAbort raises an abort targeting the given depth/checkpoint.
func throwAbort(depth, chk int) {
	panic(abortSignal{depth: depth, chk: chk})
}

// noteAbort attributes one abort decision to the observability layer: the
// cause counter plus a trace event naming the resolved retry target (depth
// for QR-CN, checkpoint epoch for QR-CHK) and the object whose read hit the
// denial (empty for commit-time aborts). No-op without a registry.
func (tx *Txn) noteAbort(cause obs.AbortCause, depth, chk int, objKey proto.ObjectID) {
	if tx.rt.obs == nil {
		return
	}
	tx.rt.obs.Abort(cause)
	tx.rt.obs.Trace(obs.Event{
		Kind:  obs.EvAbort,
		Txn:   uint64(tx.id),
		Depth: depth,
		Cause: cause,
		Obj:   string(objKey),
		Chk:   chk,
	})
}

// Txn is one (possibly nested) transaction. A Txn is confined to the
// goroutine executing its body; the engine never shares it.
type Txn struct {
	rt     *Runtime
	ctx    context.Context
	id     proto.TxnID
	depth  int
	parent *Txn

	// tc is the trace context of the span covering this transaction's scope
	// (the attempt span for roots, the CT span for closed-nested children);
	// read/commit spans open under it. Zero when tracing is off.
	tc proto.TraceContext

	readset  map[proto.ObjectID]*entry
	writeset map[proto.ObjectID]*entry

	// Checkpoint support (root transactions in Checkpoint mode).
	chkEpoch     int
	footprint    int  // objects acquired since the last checkpoint
	chkRequested bool // RequestCheckpoint was called during the current step

	// Delta-Rqv support (root transactions; children reach it via root()).
	// fpLog is the append-only footprint log in acquisition order — the same
	// set dataSet() computes, but with a stable offset per entry so each
	// quorum member's validated prefix can be named by a single integer.
	// wm maps each read-quorum member to its watermark: how many log entries
	// that member's validation session already holds. Watermarks belong to
	// one quorum view (wmEpoch); a refresh invalidates them all.
	fpLog   []proto.DataItem
	wm      map[proto.NodeID]int
	wmEpoch uint64
	// fpMark is the root log length when this closed-nested attempt started
	// (children only): the suffix to discard on a partial abort, or to
	// re-own on merge.
	fpMark int

	// Open-nesting support (root transactions only).
	openCommits   []openRecord // committed open subtransactions of this attempt
	holdsAbsLocks bool         // abstract locks held on this root's behalf

	// Sharding support (root transactions; only populated on sharded
	// runtimes). shards is the set of shards the footprint touches;
	// shardDirty records a replica's advisory that some footprint item
	// migrated away mid-transaction, so the replica skipped (not validated)
	// it. Either condition — more than one shard, or dirty — forfeits the
	// read-only local commit: the last Rqv round then certified only part of
	// the footprint, and commit must validate per shard.
	shards     map[proto.ShardID]struct{}
	shardDirty bool

	// Link prefetch (root transactions; see usePrefetched). pf holds the
	// linked copies the last successful batched read round shipped, pfShard
	// that round's shard.
	pf      map[proto.ObjectID]pfCopy
	pfShard proto.ShardID
}

// pfCopy is one link-prefetch cache entry: the highest-versioned copy the
// round's members shipped, and how many members shipped it.
type pfCopy struct {
	c proto.ObjectCopy
	n int
}

// noteShard records that the footprint touches shard s (sharded runtimes).
func (tx *Txn) noteShard(s proto.ShardID) {
	r := tx.root()
	if r.shards == nil {
		r.shards = make(map[proto.ShardID]struct{}, 2)
	}
	r.shards[s] = struct{}{}
}

// crossShard reports whether the read-only local commit is forfeit: the
// footprint spans shards, or part of it migrated out from under its last
// validation round.
func (tx *Txn) crossShard() bool {
	r := tx.root()
	return r.shardDirty || len(r.shards) > 1
}

func newRootTxn(rt *Runtime, ctx context.Context) *Txn {
	return &Txn{
		rt:       rt,
		ctx:      ctx,
		id:       rt.ids.Next(),
		readset:  make(map[proto.ObjectID]*entry),
		writeset: make(map[proto.ObjectID]*entry),
		wm:       make(map[proto.NodeID]int),
		wmEpoch:  rt.ViewEpoch(),
	}
}

// root walks up to the root transaction, which owns the footprint log and
// the per-member watermarks shared by the whole nesting tree.
func (tx *Txn) root() *Txn {
	t := tx
	for t.parent != nil {
		t = t.parent
	}
	return t
}

// fpAppend records one acquisition in the root's footprint log.
func (tx *Txn) fpAppend(e *entry) {
	r := tx.root()
	r.fpLog = append(r.fpLog, proto.DataItem{
		ID:         e.copyv.ID,
		Version:    e.copyv.Version,
		OwnerDepth: e.ownerDepth,
		OwnerChk:   e.ownerChk,
	})
}

// fpRewind discards the log suffix acquired after mark (a partial abort or
// checkpoint rollback un-acquired those objects) and clamps every member
// watermark accordingly: entries past mark may still sit in replica
// sessions, but the next request's truncate-and-append reconciliation
// removes them before anything is validated.
func (tx *Txn) fpRewind(mark int) {
	r := tx.root()
	if mark >= len(r.fpLog) {
		return
	}
	r.fpLog = r.fpLog[:mark]
	for n, w := range r.wm {
		if w > mark {
			r.wm[n] = mark
		}
	}
}

// fpReown rewrites the owner depth of log entries acquired after mark to
// depth — the log mirror of mergeToParent's re-owning — and clamps member
// watermarks back to mark so the re-owned suffix is re-shipped. The clamp
// is load-bearing: a replica session that still holds the child's old
// (deeper) depth routes a later version conflict at a subtransaction that
// no longer owns the entry, and aborting that subtransaction can never
// clear the conflict — the abort loops forever. routeAbort's clamp only
// repairs targets deeper than the requester, not targets that merged
// shallower.
func (tx *Txn) fpReown(mark, depth int) {
	r := tx.root()
	for i := mark; i < len(r.fpLog); i++ {
		r.fpLog[i].OwnerDepth = depth
	}
	for n, w := range r.wm {
		if w > mark {
			r.wm[n] = mark
		}
	}
}

func (tx *Txn) child() *Txn {
	return &Txn{
		rt:       tx.rt,
		ctx:      tx.ctx,
		id:       tx.id,
		depth:    tx.depth + 1,
		parent:   tx,
		tc:       tx.tc, // until the CT attempt span replaces it
		readset:  make(map[proto.ObjectID]*entry),
		writeset: make(map[proto.ObjectID]*entry),
	}
}

// reset clears the transaction's footprint for a retry.
func (tx *Txn) reset() {
	tx.readset = make(map[proto.ObjectID]*entry)
	tx.writeset = make(map[proto.ObjectID]*entry)
}

// ID returns the identifier of the transaction attempt (shared by a root
// and all of its closed-nested children).
func (tx *Txn) ID() proto.TxnID { return tx.id }

// Depth returns the nesting depth (0 = root).
func (tx *Txn) Depth() int { return tx.depth }

// Context returns the context the transaction runs under.
func (tx *Txn) Context() context.Context { return tx.ctx }

// lookup finds an object in this transaction's sets or any ancestor's
// (Algorithm 2's checkParent).
func (tx *Txn) lookup(id proto.ObjectID) (*entry, bool) {
	for t := tx; t != nil; t = t.parent {
		if e, ok := t.writeset[id]; ok {
			return e, true
		}
		if e, ok := t.readset[id]; ok {
			return e, true
		}
	}
	return nil, false
}

// ownerChkNow returns the checkpoint epoch to stamp on new acquisitions.
func (tx *Txn) ownerChkNow() int {
	if tx.rt.mode == Checkpoint {
		return tx.chkEpoch
	}
	return proto.NoChk
}

// dataSet assembles the validation footprint for Rqv: every object in this
// transaction's and its ancestors' read/write sets, deduplicated per object
// keeping the shallowest owner depth and earliest checkpoint epoch.
func (tx *Txn) dataSet() []proto.DataItem {
	seen := make(map[proto.ObjectID]int) // object -> index in items
	var items []proto.DataItem
	add := func(e *entry) {
		if i, ok := seen[e.copyv.ID]; ok {
			if e.ownerDepth < items[i].OwnerDepth {
				items[i].OwnerDepth = e.ownerDepth
			}
			if e.ownerChk != proto.NoChk && (items[i].OwnerChk == proto.NoChk || e.ownerChk < items[i].OwnerChk) {
				items[i].OwnerChk = e.ownerChk
			}
			return
		}
		seen[e.copyv.ID] = len(items)
		items = append(items, proto.DataItem{
			ID:         e.copyv.ID,
			Version:    e.copyv.Version,
			OwnerDepth: e.ownerDepth,
			OwnerChk:   e.ownerChk,
		})
	}
	for t := tx; t != nil; t = t.parent {
		for _, e := range t.readset {
			add(e)
		}
		for _, e := range t.writeset {
			add(e)
		}
	}
	return items
}

// Read returns the transaction's view of object id. Objects never written
// read as nil. The returned value is a private deep copy: the caller may
// mutate it freely and pass it back through Write.
func (tx *Txn) Read(id proto.ObjectID) (proto.Value, error) {
	e, err := tx.acquire(id, false)
	if err != nil {
		return nil, err
	}
	if e.copyv.Val == nil {
		return nil, nil
	}
	return e.copyv.Val.CloneValue(), nil
}

// Write buffers val as the transaction's new value for object id. The
// engine takes a private deep copy, acquiring the object's current version
// from the read quorum first if the transaction has not seen it yet.
func (tx *Txn) Write(id proto.ObjectID, val proto.Value) error {
	if e, ok := tx.writeset[id]; ok {
		e.copyv.Val = cloneVal(val)
		return nil
	}
	if e, ok := tx.readset[id]; ok {
		// Promote this transaction's own read to a write.
		delete(tx.readset, id)
		e.copyv.Val = cloneVal(val)
		tx.writeset[id] = e
		return nil
	}
	if e, ok := tx.lookup(id); ok {
		// An ancestor holds the object: buffer the write privately at this
		// level; the merge on subtransaction commit propagates it upward.
		// Not logged for delta-Rqv: the footprint dedup always resolves this
		// object to the ancestor's shallower, earlier-epoch entry anyway.
		ne := &entry{
			copyv:      proto.ObjectCopy{ID: id, Version: e.copyv.Version, Val: cloneVal(val)},
			ownerDepth: tx.depth,
			ownerChk:   tx.ownerChkNow(),
		}
		tx.writeset[id] = ne
		return nil
	}
	e, err := tx.acquireOne(id, true)
	if err != nil {
		return err
	}
	e.copyv.Val = cloneVal(val)
	return nil
}

// Create buffers a write to an object the caller knows to be brand new
// (e.g. a freshly allocated list node), skipping the read-quorum fetch.
//
// The ID must be globally fresh (e.g. from an atomic counter): creating an
// object that already has a committed version is caught by commit-time
// validation, but since every retry would re-create it at version 0, the
// transaction can never commit — allocate a new ID per attempt, or use
// Write, which fetches the current version first.
func (tx *Txn) Create(id proto.ObjectID, val proto.Value) {
	tx.admit(proto.ObjectCopy{ID: id, Version: 0, Val: cloneVal(val)}, true)
}

// admit enters a freshly acquired copy into this scope's read or write set:
// owned by the current depth and checkpoint epoch, appended to the root's
// footprint log (so the next round or the prepare validates it), and counted
// as an acquisition.
func (tx *Txn) admit(c proto.ObjectCopy, write bool) *entry {
	e := &entry{
		copyv:      c,
		ownerDepth: tx.depth,
		ownerChk:   tx.ownerChkNow(),
	}
	if write {
		tx.writeset[c.ID] = e
	} else {
		tx.readset[c.ID] = e
	}
	tx.fpAppend(e)
	tx.noteAcquisition()
	return e
}

func cloneVal(v proto.Value) proto.Value {
	if v == nil {
		return nil
	}
	return v.CloneValue()
}

// acquire returns the entry for id, fetching from the read quorum when no
// enclosing transaction holds it.
func (tx *Txn) acquire(id proto.ObjectID, write bool) (*entry, error) {
	if e, ok := tx.lookup(id); ok {
		tx.rt.metrics.LocalReads.Add(1)
		return e, nil
	}
	return tx.acquireOne(id, write)
}

// acquireOne fetches a single unheld object: from the link-prefetch cache
// when the last round shipped it, else over the batched/delta path by
// default (a one-object batch — same single quorum round, but the footprint
// ships incrementally), or over the classic full-footprint ReadReq when the
// runtime is configured with LegacyReads.
func (tx *Txn) acquireOne(id proto.ObjectID, write bool) (*entry, error) {
	if e, ok := tx.usePrefetched(id, write); ok {
		return e, nil
	}
	if tx.rt.legacyReads {
		return tx.acquireRemote(id, write)
	}
	if err := tx.acquireBatch([]proto.ObjectID{id}, write); err != nil {
		return nil, err
	}
	if write {
		return tx.writeset[id], nil
	}
	return tx.readset[id], nil
}

// ReadAll ensures every listed object is in the transaction's footprint,
// fetching all still-unheld ones from the read quorum in a single batched
// round instead of one round per object. It is the prefetch entry point for
// workloads that know (part of) their read set up front — bucket heads of a
// hash map scan, the rows of a reservation — and it is semantically
// identical to reading each object individually: the same Rqv validation
// guards the round, and subsequent Read/Write calls hit the footprint
// locally. Unknown objects are fetched as version 0 and read as nil, exactly
// as with Read.
func (tx *Txn) ReadAll(ids ...proto.ObjectID) error {
	missing := make([]proto.ObjectID, 0, len(ids))
	seen := make(map[proto.ObjectID]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if _, held := tx.lookup(id); held {
			continue
		}
		missing = append(missing, id)
	}
	if len(missing) == 0 {
		return nil
	}
	if tx.rt.legacyReads {
		for _, id := range missing {
			if _, err := tx.acquireRemote(id, false); err != nil {
				return err
			}
		}
		return nil
	}
	return tx.acquireBatch(missing, false)
}

// acquireRemote performs the remote read of Algorithm 2: multicast to the
// read quorum (with the Rqv data set in every mode but Flat), abort-route on
// validation failure, and keep the highest-versioned copy.
func (tx *Txn) acquireRemote(id proto.ObjectID, write bool) (*entry, error) {
	var dataSet []proto.DataItem
	if tx.rt.mode.Rqv() {
		dataSet = tx.dataSet()
		if dataSet == nil {
			dataSet = []proto.DataItem{} // non-nil: request validation even with an empty footprint
		}
	}
	req := proto.ReadReq{
		Txn:     tx.id,
		Obj:     id,
		Write:   write,
		Depth:   tx.depth,
		DataSet: dataSet,
	}

	const quorumRetries = 3
	lockWaits := 0
	wrongShards := 0
	for attempt := 0; ; attempt++ {
		if err := tx.ctx.Err(); err != nil {
			return nil, err
		}
		// Re-resolve the shard each attempt: a wrong-shard retry refreshed
		// the map, which may have re-homed the object.
		shard := tx.rt.shardFor(id)
		readQ, _ := tx.rt.shardQuorums(shard)
		if len(readQ) == 0 {
			return nil, ErrUnavailable
		}
		tx.dropPrefetch()
		tx.rt.metrics.ReadRequests.Add(1)
		// One read span per quorum round; its context rides in the request so
		// every replica's serve-read span links back to it.
		sp := tx.rt.obs.StartSpan(proto.SpanRead, tx.rt.node, tx.tc)
		sp.SetTxn(tx.id)
		sp.SetObj(id)
		sp.SetDepth(tx.depth)
		sp.SetChk(tx.ownerChkNow())
		if tx.rt.Sharded() {
			sp.SetShard(shard)
		}
		req.TC = sp.Context()
		t0 := tx.rt.obs.Start()
		replies := cluster.Multicast(tx.ctx, tx.rt.trans, tx.rt.node, readQ, req)
		tx.rt.obs.ObserveSince(obs.SiteReadRTT, t0)

		best := proto.ObjectCopy{ID: id}
		abortDepth, abortChk := proto.NoDepth, proto.NoChk
		denied := false
		wrongShard := false
		lockOnly := true
		var callErr error
		for _, rep := range replies {
			if rep.Err != nil {
				if isCtxErr(rep.Err) && tx.ctx.Err() != nil {
					// The transaction's own context ended mid-multicast; a
					// cancelled leg says nothing about the peer's health, so
					// it must not trigger a quorum refresh.
					sp.End()
					return nil, tx.ctx.Err()
				}
				callErr = rep.Err
				continue
			}
			rr, ok := rep.Resp.(proto.ReadRep)
			if !ok {
				sp.End()
				return nil, fmt.Errorf("core: unexpected read reply %T from %v", rep.Resp, rep.Node)
			}
			if rr.WrongShard {
				if !rr.OK {
					wrongShard = true
					continue
				}
				// Advisory: a footprint item migrated away and this member
				// skipped validating it — the round no longer certifies the
				// whole footprint (see Txn.shardDirty).
				tx.root().shardDirty = true
			}
			if !rr.OK {
				denied = true
				if !rr.LockOnly {
					lockOnly = false
				}
				if abortDepth == proto.NoDepth || (rr.AbortDepth != proto.NoDepth && rr.AbortDepth < abortDepth) {
					abortDepth = rr.AbortDepth
				}
				if rr.AbortChk != proto.NoChk && (abortChk == proto.NoChk || rr.AbortChk < abortChk) {
					abortChk = rr.AbortChk
				}
				continue
			}
			if rr.Copy.Version >= best.Version {
				best = rr.Copy
			}
		}

		if denied {
			// Contention-manager policy: a denial caused purely by a
			// commit in flight (locks, no newer versions) can be waited
			// out — the lock clears within one commit round either way.
			if lockOnly && lockWaits < tx.rt.lockWaits {
				lockWaits++
				tx.rt.metrics.LockWaits.Add(1)
				sp.SetNote("lock-wait")
				sp.End()
				// One network quantum per wait: commit windows last about
				// two rounds, so a couple of waits ride one out. This is
				// policy pacing, independent of abort backoff.
				lw0 := tx.rt.obs.Start()
				if err := sleepCtx(tx.ctx, time.Duration(lockWaits)*time.Millisecond); err != nil {
					return nil, err
				}
				tx.rt.obs.ObserveSince(obs.SiteLockWait, lw0)
				continue
			}
			// Validation failed somewhere in the footprint: partially or
			// fully abort, per mode. A denial caused purely by locks (wait
			// budget exhausted) is attributed to the lock holder, a stale
			// footprint to read validation.
			cause := obs.CauseReadValidation
			if lockOnly {
				cause = obs.CauseLockDenied
			}
			sp.End()
			tx.routeAbort(abortDepth, abortChk, cause, id, req.TC)
		}
		if wrongShard {
			// The object is not homed on this quorum's shard — stale map or
			// a migration fence. Refresh and retry; during a drain both ends
			// reject, so keep polling until the handover epoch lands.
			sp.SetNote("wrong-shard")
			sp.End()
			if wrongShards++; wrongShards > wrongShardRetries {
				return nil, fmt.Errorf("%w: read of %v kept landing on the wrong shard", ErrUnavailable, id)
			}
			tx.rt.metrics.QuorumRefreshes.Add(1)
			if err := tx.rt.RefreshQuorums(); err != nil {
				return nil, err
			}
			if err := sleepCtx(tx.ctx, wrongShardPause(wrongShards)); err != nil {
				return nil, err
			}
			continue
		}
		if callErr != nil {
			// A quorum member is unreachable: reconfigure and retry the
			// read against the new quorum.
			sp.SetNote("node-down")
			sp.End()
			tx.rt.metrics.QuorumRefreshes.Add(1)
			if err := tx.rt.RefreshQuorums(); err != nil {
				return nil, err
			}
			if attempt+1 >= quorumRetries {
				return nil, fmt.Errorf("%w: read of %v kept failing: %v", ErrUnavailable, id, callErr)
			}
			continue
		}

		sp.SetVersion(best.Version)
		sp.SetOK(true)
		sp.End()
		tx.rt.obs.HeatRead(id)
		if tx.rt.Sharded() {
			tx.noteShard(shard)
		}
		return tx.admit(best, write), nil
	}
}

// acquireBatch fetches a set of unheld objects, grouping them by shard: each
// group runs one batched read round against its own shard's read quorum. On
// an unsharded runtime there is exactly one group (shard 0) and the call is
// the single round it always was. Wrong-shard rejections — a stale map or a
// migration fence — refresh the map, regroup the survivors by the fresh
// placement, and retry under a budget sized to outlast a slot drain.
func (tx *Txn) acquireBatch(ids []proto.ObjectID, write bool) error {
	if !tx.rt.Sharded() {
		return tx.acquireBatchShard(0, ids, write)
	}
	remaining := ids
	for wrongShards := 0; ; wrongShards++ {
		if err := tx.ctx.Err(); err != nil {
			return err
		}
		groups, order := groupByShard(tx.rt, remaining)
		var retry []proto.ObjectID
		for _, s := range order {
			switch err := tx.acquireBatchShard(s, groups[s], write); {
			case errors.Is(err, errWrongShard):
				retry = append(retry, groups[s]...)
			case err != nil:
				return err
			}
		}
		if len(retry) == 0 {
			return nil
		}
		if wrongShards >= wrongShardRetries {
			return fmt.Errorf("%w: %d objects kept landing on the wrong shard", ErrUnavailable, len(retry))
		}
		tx.rt.metrics.QuorumRefreshes.Add(1)
		if err := tx.rt.RefreshQuorums(); err != nil {
			return err
		}
		if err := sleepCtx(tx.ctx, wrongShardPause(wrongShards)); err != nil {
			return err
		}
		remaining = retry
	}
}

// acquireBatchShard performs one read-quorum round for a set of unheld
// objects homed on one shard, with incremental Rqv: each quorum member
// receives only the footprint log suffix past its own watermark, validates
// its whole reconciled session, and returns all requested copies. The highest
// version across the quorum wins per object, as in acquireRemote. Denials
// route aborts exactly like the single-object path; NeedFull replies (the
// replica lost its session) reset that member's watermark and retry the round
// with the full footprint. Wrong-shard rejections return errWrongShard for
// acquireBatch to re-route.
//
// The footprint log and watermarks stay global (keyed by NodeID): members of
// other shards simply skip the log entries they do not own, so one log serves
// every shard's sessions without per-shard bookkeeping.
func (tx *Txn) acquireBatchShard(shard proto.ShardID, ids []proto.ObjectID, write bool) error {
	root := tx.root()
	rqv := tx.rt.mode.Rqv()

	const quorumRetries = 3
	lockWaits := 0
	resyncs := 0
	for attempt := 0; ; attempt++ {
		if err := tx.ctx.Err(); err != nil {
			return err
		}
		readQ, _ := tx.rt.shardQuorums(shard)
		if len(readQ) == 0 {
			return ErrUnavailable
		}
		// Watermarks describe sessions on the members of one quorum view; a
		// reconfiguration may have replaced members, so start over. (Stale
		// watermarks would also self-heal via NeedFull, but only for members
		// that restarted — a *new* member with no session accepts From=0
		// only.)
		if epoch := tx.rt.ViewEpoch(); epoch != root.wmEpoch {
			clear(root.wm)
			root.wmEpoch = epoch
		}
		tx.dropPrefetch()
		tx.rt.metrics.ReadRequests.Add(1)
		tx.rt.obs.Observe(obs.SiteBatchSize, int64(len(ids)))
		sp := tx.rt.obs.StartSpan(proto.SpanRead, tx.rt.node, tx.tc)
		sp.SetTxn(tx.id)
		if len(ids) == 1 {
			sp.SetObj(ids[0])
		}
		sp.SetDepth(tx.depth)
		sp.SetChk(tx.ownerChkNow())
		if tx.rt.Sharded() {
			sp.SetShard(shard)
		}
		logLen := len(root.fpLog)
		base := proto.BatchReadReq{
			Txn:   tx.id,
			Objs:  ids,
			Write: write,
			Depth: tx.depth,
			Rqv:   rqv,
			TC:    sp.Context(),
		}
		deltaMax := 0
		t0 := tx.rt.obs.Start()
		replies := cluster.MulticastEach(tx.ctx, tx.rt.trans, tx.rt.node, readQ, func(n proto.NodeID) any {
			req := base
			if rqv {
				from := root.wm[n]
				if from > logLen {
					from = logLen // rewound past this member's watermark; clamp defensively
				}
				req.From = from
				// The three-index slice caps the view at logLen, so later
				// appends to the log can never leak into an in-flight frame.
				req.Delta = root.fpLog[from:logLen:logLen]
				if d := logLen - from; d > deltaMax {
					deltaMax = d
				}
			}
			return req
		})
		tx.rt.obs.ObserveSince(obs.SiteReadRTT, t0)

		best := make(map[proto.ObjectID]proto.ObjectCopy, len(ids))
		abortDepth, abortChk := proto.NoDepth, proto.NoChk
		denied := false
		needFull := false
		wrongShard := false
		lockOnly := true
		var callErr error
		for _, rep := range replies {
			if rep.Err != nil {
				if isCtxErr(rep.Err) && tx.ctx.Err() != nil {
					sp.End()
					return tx.ctx.Err()
				}
				callErr = rep.Err
				continue
			}
			rr, ok := rep.Resp.(proto.BatchReadRep)
			if !ok {
				sp.End()
				return fmt.Errorf("core: unexpected batch read reply %T from %v", rep.Resp, rep.Node)
			}
			if rr.NeedFull {
				needFull = true
				delete(root.wm, rep.Node)
				continue
			}
			if rr.WrongShard {
				if !rr.OK {
					wrongShard = true // a requested object is not homed here
					continue
				}
				// Advisory: a footprint item migrated away and this member
				// skipped validating it — forfeit the read-only local commit
				// (see Txn.shardDirty).
				tx.root().shardDirty = true
			}
			if !rr.OK {
				denied = true
				if !rr.LockOnly {
					lockOnly = false
				}
				if abortDepth == proto.NoDepth || (rr.AbortDepth != proto.NoDepth && rr.AbortDepth < abortDepth) {
					abortDepth = rr.AbortDepth
				}
				if rr.AbortChk != proto.NoChk && (abortChk == proto.NoChk || rr.AbortChk < abortChk) {
					abortChk = rr.AbortChk
				}
				continue
			}
			if rqv {
				// This member's session now holds (and has validated) the
				// log prefix we shipped.
				root.wm[rep.Node] = logLen
			}
			for _, c := range rr.Copies {
				if b, held := best[c.ID]; !held || c.Version >= b.Version {
					best[c.ID] = c
				}
			}
		}

		if denied {
			if lockOnly && lockWaits < tx.rt.lockWaits {
				lockWaits++
				tx.rt.metrics.LockWaits.Add(1)
				sp.SetNote("lock-wait")
				sp.End()
				lw0 := tx.rt.obs.Start()
				if err := sleepCtx(tx.ctx, time.Duration(lockWaits)*time.Millisecond); err != nil {
					return err
				}
				tx.rt.obs.ObserveSince(obs.SiteLockWait, lw0)
				continue
			}
			cause := obs.CauseReadValidation
			if lockOnly {
				cause = obs.CauseLockDenied
			}
			sp.End()
			var obj proto.ObjectID
			if len(ids) == 1 {
				obj = ids[0]
			}
			tx.routeAbort(abortDepth, abortChk, cause, obj, base.TC)
		}
		if wrongShard {
			sp.SetNote("wrong-shard")
			sp.End()
			return errWrongShard
		}
		if callErr != nil {
			sp.SetNote("node-down")
			sp.End()
			tx.rt.metrics.QuorumRefreshes.Add(1)
			if err := tx.rt.RefreshQuorums(); err != nil {
				return err
			}
			if attempt+1 >= quorumRetries {
				return fmt.Errorf("%w: batched read of %d objects kept failing: %v", ErrUnavailable, len(ids), callErr)
			}
			continue
		}
		if needFull {
			// A session was evicted or the replica restarted. The watermark
			// reset above makes the very next round ship the full footprint
			// (From 0), which a replica can never refuse, so one retry per
			// resync suffices.
			sp.SetNote("need-full")
			sp.End()
			if resyncs++; resyncs > quorumRetries {
				return fmt.Errorf("%w: batched read kept resyncing validation sessions", ErrUnavailable)
			}
			continue
		}

		shipped := tx.keepPrefetch(shard, replies)
		if sp.Active() {
			sp.SetNote(fmt.Sprintf("batch=%d delta=%d prefetch=%d", len(ids), deltaMax, shipped))
		}
		if tx.rt.Sharded() {
			tx.noteShard(shard)
			tx.rt.obs.ShardObserveSince(shard, obs.SiteReadRTT, t0)
		}
		for _, id := range ids {
			c := best[id]
			c.ID = id // unknown objects come back zero-valued; keep the ID
			sp.AddItem(id, c.Version)
			tx.rt.obs.HeatRead(id)
			tx.admit(c, write)
		}
		if len(ids) == 1 {
			sp.SetVersion(best[ids[0]].Version)
		}
		sp.SetOK(true)
		sp.End()
		return nil
	}
}

// Link prefetch. A replica answering a batched read also ships the objects
// the returned copies link to (proto.Linker, store.Linked), and the root
// keeps them in pf so that a traversal's next hops cost no read round. A
// cached copy stands in for a fetched one only under four rules, each
// required for correctness:
//
//  1. Lifetime. The cache belongs to the root and is filled only from the
//     replies of the round that just succeeded (keepPrefetch). It is dropped
//     at the start of every later message the root sends (dropPrefetch):
//     each acquireBatchShard attempt, acquireRemote, the shardStale probe,
//     and Txn.Open — an open child commits on its own, and a parent that
//     kept a pre-commit copy of an object its child just wrote would fail
//     validation the same way on every retry. A root retry is a new Txn
//     with an empty cache. Since no message separates the round from the
//     use, a cached copy is exactly what naming the object in that round's
//     ReadAll would have returned, so the read-only local commit stays sound
//     for the same reason it is sound for ReadAll.
//  2. Quorum. An id is kept only if every member of the round shipped it,
//     at the highest version among them — the rule for requested objects. A
//     member that lacks the object, or whose walk reached a different chain
//     or stopped at its bound, turns the lookup into a miss, which falls
//     back to a normal read round.
//  3. Shard. A copy is used only while its object still routes to the
//     round's shard (replicas skip objects they do not own, but a stale map
//     must not smuggle one in), and the use notes that shard.
//  4. Bookkeeping. A used copy enters the read or write set through admit,
//     exactly as a fetched one: owned by the current scope's depth and
//     checkpoint epoch, appended to the footprint log (so the next round or
//     the prepare validates it and routes partial aborts exactly), counted
//     as an acquisition, and heat-attributed as a read.

// usePrefetched serves id from the link-prefetch cache if rules 1–3 allow,
// entering it in this scope's footprint (rule 4).
func (tx *Txn) usePrefetched(id proto.ObjectID, write bool) (*entry, bool) {
	r := tx.root()
	p, ok := r.pf[id]
	if !ok {
		return nil, false
	}
	if tx.rt.Sharded() {
		if tx.rt.shardFor(id) != r.pfShard {
			return nil, false
		}
		tx.noteShard(r.pfShard)
	}
	delete(r.pf, id)
	tx.rt.obs.HeatRead(id)
	tx.rt.metrics.PrefetchHits.Add(1)
	return tx.admit(p.c, write), true
}

// dropPrefetch empties the root's link-prefetch cache (rule 1).
func (tx *Txn) dropPrefetch() {
	clear(tx.root().pf)
}

// keepPrefetch fills the root's link-prefetch cache from the replies of the
// batched round on shard that just succeeded, keeping only the ids every
// member shipped (rule 2). It returns the most copies any member shipped.
func (tx *Txn) keepPrefetch(shard proto.ShardID, replies []cluster.Reply) (shipped int) {
	all := true
	for _, rep := range replies {
		n := len(rep.Resp.(proto.BatchReadRep).Prefetch)
		shipped = max(shipped, n)
		all = all && n > 0
	}
	if !all {
		return shipped
	}
	r := tx.root()
	if r.pf == nil {
		r.pf = make(map[proto.ObjectID]pfCopy, shipped)
	}
	r.pfShard = shard
	for i, rep := range replies {
		for _, c := range rep.Resp.(proto.BatchReadRep).Prefetch {
			p := r.pf[c.ID]
			if p.n != i {
				continue // missed by an earlier member, or shipped twice by this one
			}
			if p.n == 0 || c.Version > p.c.Version {
				p.c = c
			}
			p.n++
			r.pf[c.ID] = p
		}
	}
	for id, p := range r.pf {
		if p.n < len(replies) {
			delete(r.pf, id)
		}
	}
	return shipped
}

// routeAbort converts a validation denial into the mode-appropriate abort,
// attributing the decision (cause plus the read that hit it) to the
// observability layer so partial-abort routing is visible in traces. parent
// is the span of the read that was denied; the abort span opens under it so
// a merged trace shows which replicas' denials produced the routed target.
func (tx *Txn) routeAbort(abortDepth, abortChk int, cause obs.AbortCause, obj proto.ObjectID, parent proto.TraceContext) {
	if obj != "" {
		// Heat-attribute the conflict (and the abort it forces) to the
		// triggering object's slot; footprint-wide denials carry no object.
		tx.rt.obs.HeatConflict(obj)
		tx.rt.obs.HeatAbort(obj)
	}
	switch tx.rt.mode {
	case Closed:
		d := abortDepth
		if d == proto.NoDepth {
			d = 0
		}
		if d > tx.depth {
			// The named owner was a subtransaction that has since merged
			// into an ancestor; the shallowest live scope retries.
			d = tx.depth
		}
		tx.noteAbort(cause, d, proto.NoChk, obj)
		tx.abortSpan(parent, cause, obj, d, proto.NoChk)
		throwAbort(d, proto.NoChk)
	case Checkpoint:
		c := abortChk
		if c == proto.NoChk {
			c = 0
		}
		if c > tx.chkEpoch {
			c = tx.chkEpoch
		}
		tx.noteAbort(cause, 0, c, obj)
		tx.abortSpan(parent, cause, obj, 0, c)
		throwAbort(0, c)
	default:
		tx.noteAbort(cause, 0, proto.NoChk, obj)
		tx.abortSpan(parent, cause, obj, 0, proto.NoChk)
		throwAbort(0, proto.NoChk)
	}
}

// abortSpan records an instant abort-decision span carrying the routed
// target (Depth for QR-CN, Chk for QR-CHK) and the cause as its note.
func (tx *Txn) abortSpan(parent proto.TraceContext, cause obs.AbortCause, obj proto.ObjectID, depth, chk int) {
	sp := tx.rt.obs.StartSpan(proto.SpanAbort, tx.rt.node, parent)
	sp.SetTxn(tx.id)
	sp.SetObj(obj)
	sp.SetDepth(depth)
	sp.SetChk(chk)
	sp.SetNote(cause.String())
	sp.End()
}

// noteAcquisition grows the checkpoint footprint counter.
func (tx *Txn) noteAcquisition() {
	if tx.rt.mode == Checkpoint && tx.depth == 0 {
		tx.footprint++
	}
}

// FootprintSize returns the number of distinct objects in this
// transaction's own read and write sets (not counting ancestors).
func (tx *Txn) FootprintSize() int {
	return len(tx.readset) + len(tx.writeset)
}
