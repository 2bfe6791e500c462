package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

// Atomic runs body as a root transaction, retrying on conflict until it
// commits, the context is cancelled, or body returns an error (which cancels
// the transaction and is returned as-is).
//
// In Closed mode, body may call Txn.Nested to delimit closed-nested
// subtransactions. In Checkpoint mode, plain Atomic cannot resume partially
// — use AtomicSteps, which gives the engine the re-entry points it needs —
// so conflicts restart the body from the beginning.
//
// Bodies may run multiple times; they must not have side effects outside
// the transaction other than idempotent writes to caller state.
func (rt *Runtime) Atomic(ctx context.Context, body func(*Txn) error) error {
	t0 := rt.obs.Start()
	rsp := rt.obs.StartSpan(proto.SpanRoot, rt.node, proto.TraceContext{})
	defer rsp.End()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if rt.maxRetries > 0 && attempt >= rt.maxRetries {
			return ErrTooManyRetries
		}
		tx := newRootTxn(rt, ctx)
		asp := rt.obs.StartSpan(proto.SpanAttempt, rt.node, rsp.Context())
		asp.SetTxn(tx.id)
		tx.tc = asp.Context()
		aborted, err := rt.attemptRoot(tx, body)
		asp.SetOK(err == nil && !aborted)
		asp.End()
		if err != nil {
			// The body may have committed open subtransactions before
			// failing; undo them before surfacing the error.
			if ferr := rt.finishOpen(tx, true); ferr != nil {
				return errors.Join(err, ferr)
			}
			return err
		}
		if !aborted {
			if ferr := rt.finishOpen(tx, false); ferr != nil {
				return ferr
			}
			rt.metrics.Commits.Add(1)
			rt.obs.ObserveSince(obs.SiteTxnLatency, t0)
			rt.obs.Trace(obs.Event{Kind: obs.EvCommit, Txn: uint64(tx.id)})
			rsp.SetTxn(tx.id)
			rsp.SetOK(true)
			return nil
		}
		if ferr := rt.finishOpen(tx, true); ferr != nil {
			return ferr
		}
		rt.metrics.RootAborts.Add(1)
		rt.backoff(attempt)
	}
}

// attemptRoot runs one root attempt (body + commit), converting abort
// signals into aborted == true.
//
// Flat transactions read without incremental validation, so a live
// transaction can observe an inconsistent snapshot (mixed versions) and its
// body may fail or even panic inside otherwise-correct application code — a
// "zombie" in STM terms. Commit-time validation would have aborted it
// anyway, so when a flat body errors or panics, the engine revalidates the
// footprint against the read quorum: if the snapshot is stale, the attempt
// becomes an ordinary abort-and-retry; only errors from a *valid* snapshot
// are real. Rqv modes are opaque (every remote read revalidates), so their
// errors always surface.
func (rt *Runtime) attemptRoot(tx *Txn, body func(*Txn) error) (aborted bool, err error) {
	defer recoverAbort(&aborted)
	bodyErr := rt.runBody(tx, body)
	if bodyErr != nil {
		if errors.Is(bodyErr, errZombie) {
			// Staleness already confirmed by runBody.
			tx.noteAbort(obs.CauseReadValidation, 0, proto.NoChk, "")
			return true, nil
		}
		// Engine errors (quorum unavailable, cancellation) are never
		// zombie symptoms; only application errors warrant revalidation.
		engineErr := errors.Is(bodyErr, ErrUnavailable) ||
			errors.Is(bodyErr, context.Canceled) ||
			errors.Is(bodyErr, context.DeadlineExceeded)
		if !rt.mode.Rqv() && !engineErr && tx.snapshotStale() {
			tx.noteAbort(obs.CauseReadValidation, 0, proto.NoChk, "")
			return true, nil
		}
		return false, bodyErr
	}
	return false, tx.commitRoot()
}

// runBody invokes the body, converting zombie panics of flat transactions
// into errors so attemptRoot can route them through revalidation. Abort
// signals and panics of consistent transactions pass through.
func (rt *Runtime) runBody(tx *Txn, body func(*Txn) error) (err error) {
	if rt.mode.Rqv() {
		return body(tx)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(abortSignal); ok {
			panic(r)
		}
		if tx.snapshotStale() {
			err = errZombie
			return
		}
		panic(r)
	}()
	return body(tx)
}

var errZombie = errors.New("core: zombie transaction (inconsistent snapshot)")

// snapshotStale asks the read quorum to validate the transaction's
// footprint without fetching anything. It reports true — abort and retry —
// when the footprint is stale or the quorum is unreachable. On a sharded
// runtime every touched shard validates its own slice of the footprint
// against its own read quorum; a probe that lands on the wrong shard (stale
// map or migration fence) counts as stale after refreshing the map, so the
// retry re-routes.
func (tx *Txn) snapshotStale() bool {
	items := tx.dataSet()
	if !tx.rt.Sharded() {
		return tx.shardStale(0, items)
	}
	if len(items) == 0 {
		return false // nothing read, nothing to be stale about
	}
	groups := make(map[proto.ShardID][]proto.DataItem)
	for _, it := range items {
		s := tx.rt.shardFor(it.ID)
		groups[s] = append(groups[s], it)
	}
	for s, its := range groups {
		if tx.shardStale(s, its) {
			return true
		}
	}
	return false
}

// shardStale is one validation-only probe of items against shard's read
// quorum (shard 0 doubles as "the" quorum on unsharded runtimes).
func (tx *Txn) shardStale(shard proto.ShardID, items []proto.DataItem) bool {
	readQ, _ := tx.rt.shardQuorums(shard)
	if len(readQ) == 0 {
		return true
	}
	tx.dropPrefetch()
	req := proto.ReadReq{Txn: tx.id, Depth: tx.depth, DataSet: items}
	if req.DataSet == nil {
		req.DataSet = []proto.DataItem{}
	}
	sp := tx.rt.obs.StartSpan(proto.SpanRead, tx.rt.node, tx.tc)
	sp.SetTxn(tx.id)
	sp.SetNote("revalidate")
	if tx.rt.Sharded() {
		sp.SetShard(shard)
	}
	req.TC = sp.Context()
	defer sp.End()
	tx.rt.metrics.ReadRequests.Add(1)
	t0 := tx.rt.obs.Start()
	replies := cluster.Multicast(tx.ctx, tx.rt.trans, tx.rt.node, readQ, req)
	tx.rt.obs.ObserveSince(obs.SiteReadRTT, t0)
	for _, rep := range replies {
		if rep.Err != nil {
			return true
		}
		rr, ok := rep.Resp.(proto.ReadRep)
		if !ok || !rr.OK {
			if ok && rr.WrongShard {
				// The probe asked the wrong home: refresh so the retry's
				// probes regroup under the fresh map.
				tx.rt.metrics.QuorumRefreshes.Add(1)
				_ = tx.rt.RefreshQuorums()
			}
			return true
		}
	}
	sp.SetOK(true) // snapshot confirmed valid
	return false
}

// recoverAbort converts a root-level abort signal into *aborted = true and
// re-raises anything else.
func recoverAbort(aborted *bool) {
	r := recover()
	if r == nil {
		return
	}
	if sig, ok := r.(abortSignal); ok && sig.depth == 0 {
		*aborted = true
		return
	}
	panic(r)
}

// Nested runs body as a closed-nested subtransaction of tx. Outside Closed
// mode the call is flattened: body runs inline on tx, reproducing the
// paper's flat-nesting semantics where "the existence of transactions in
// inner code is simply ignored".
//
// In Closed mode the subtransaction keeps private read/write sets; on
// success they merge into tx locally (Algorithm 3 — no remote messages). A
// validation failure whose abort target is the subtransaction retries only
// body, immediately and without backoff, per the paper; targets above it
// unwind further.
func (tx *Txn) Nested(body func(*Txn) error) error {
	if tx.rt.mode != Closed {
		return body(tx)
	}
	child := tx.child()
	for attempt := 0; ; attempt++ {
		if err := tx.ctx.Err(); err != nil {
			return err
		}
		if tx.rt.maxRetries > 0 && attempt >= tx.rt.maxRetries {
			return ErrTooManyRetries
		}
		child.fpMark = len(tx.root().fpLog)
		csp := tx.rt.obs.StartSpan(proto.SpanCT, tx.rt.node, tx.tc)
		csp.SetTxn(tx.id)
		csp.SetDepth(child.depth)
		child.tc = csp.Context()
		// The deferred End survives an abort signal targeting a shallower
		// scope, which unwinds straight past this loop.
		aborted, err := func() (bool, error) {
			defer csp.End()
			a, e := child.attemptCT(body)
			csp.SetOK(e == nil && !a)
			return a, e
		}()
		if err != nil {
			return err
		}
		if !aborted {
			child.mergeToParent()
			tx.rt.metrics.CTCommits.Add(1)
			return nil
		}
		tx.rt.metrics.CTAborts.Add(1)
		child.reset()
		// The aborted attempt's acquisitions leave the footprint; the next
		// delta request's reconciliation drops them from replica sessions.
		child.fpRewind(child.fpMark)
		// Partial aborts retry immediately, as in the paper — there the
		// ~30 ms quorum round trip paces the retry naturally. On a
		// fast/simulated network an unpaced spin can livelock against a
		// commit in progress, so persistent failures fall back to backoff.
		if attempt >= immediateRetries {
			tx.rt.backoff(attempt - immediateRetries)
		}
	}
}

// immediateRetries is how many partial-abort retries run without backoff
// before the engine starts pacing them. One free retry covers the common
// already-committed-writer case (the re-read simply fetches the new
// version); anything more persistent is a commit in progress, and spinning
// against its lock window only inflates abort counts.
const immediateRetries = 1

func (ct *Txn) attemptCT(body func(*Txn) error) (aborted bool, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if sig, ok := r.(abortSignal); ok && sig.depth == ct.depth {
			aborted = true
			return
		}
		panic(r)
	}()
	return false, body(ct)
}

// mergeToParent commits a closed-nested transaction locally: its read and
// write sets move into the parent's (Algorithm 3). Merged entries are
// re-owned at the parent's depth — once control returns to the parent, a
// later invalidation of these objects can only be repaired by retrying the
// parent (the subtransaction's scope has been left; Go, like Java, has no
// way to re-enter it).
func (ct *Txn) mergeToParent() {
	p := ct.parent
	for id, e := range ct.readset {
		e.ownerDepth = p.depth
		if _, inW := p.writeset[id]; !inW {
			p.readset[id] = e
		}
	}
	for id, e := range ct.writeset {
		e.ownerDepth = p.depth
		p.writeset[id] = e
		delete(p.readset, id)
	}
	ct.fpReown(ct.fpMark, p.depth)
}

// commitRoot commits a root transaction: read-only transactions under Rqv
// commit locally; everything else runs the two-phase protocol over the
// write quorum. Conflicts raise a full abort (abortSignal panic); hard
// failures (quorum unavailable) return an error.
func (tx *Txn) commitRoot() error {
	return tx.commit(nil, 0)
}

// commitPart is one shard's slice of a commit: the reads to validate, the
// writes and abstract locks to prepare, and the write quorum that votes.
// Unsharded commits are a single part over shard 0 — the classic protocol.
type commitPart struct {
	shard    proto.ShardID
	reads    []proto.DataItem
	writes   []proto.ObjectCopy
	absLocks []string
	writeQ   []proto.NodeID
}

// locked reports whether preparing this part takes locks that a decision
// must later release.
func (p *commitPart) locked() bool { return len(p.writes) > 0 || len(p.absLocks) > 0 }

// commitParts splits the commit footprint by shard and resolves each
// participant's write quorum. Abstract locks route by their name's slot,
// like objects, so the same lock always serializes on the same shard.
func (tx *Txn) commitParts(reads []proto.DataItem, writes []proto.ObjectCopy, absLocks []string) ([]*commitPart, error) {
	var parts []*commitPart
	index := make(map[proto.ShardID]*commitPart, 2)
	part := func(s proto.ShardID) *commitPart {
		p := index[s]
		if p == nil {
			p = &commitPart{shard: s}
			index[s] = p
			parts = append(parts, p)
		}
		return p
	}
	if !tx.rt.Sharded() {
		p := part(0)
		p.reads, p.writes, p.absLocks = reads, writes, absLocks
	} else {
		for _, r := range reads {
			p := part(tx.rt.shardFor(r.ID))
			p.reads = append(p.reads, r)
		}
		for _, w := range writes {
			p := part(tx.rt.shardFor(w.ID))
			p.writes = append(p.writes, w)
		}
		for _, l := range absLocks {
			p := part(tx.rt.shardFor(proto.ObjectID(l)))
			p.absLocks = append(p.absLocks, l)
		}
	}
	for _, p := range parts {
		_, wq := tx.rt.shardQuorums(p.shard)
		if len(wq) == 0 {
			return nil, fmt.Errorf("%w: empty write quorum for shard %d", ErrUnavailable, p.shard)
		}
		p.writeQ = wq
	}
	return parts, nil
}

// commit is commitRoot extended with abstract-lock acquisition (open
// nesting): absLocks are granted to owner as part of the prepare votes.
//
// On a sharded runtime the commit is a two-phase commit over the union of
// the touched shards' write quorums: prepare-all (every shard's write quorum
// validates its slice of the reads and locks its slice of the writes), then
// decide-all with the same outcome everywhere. Atomicity holds because no
// shard installs anything until every shard has voted yes, and
// serializability because an object unchanged at its validation time was
// unchanged since it was read — so a unanimous prepare certifies the whole
// footprint as simultaneously valid at the first prepare's validation time,
// and the held locks pin that point until the decision lands.
func (tx *Txn) commit(absLocks []string, owner proto.TxnID) error {
	m := tx.rt.metrics
	if len(absLocks) == 0 && len(tx.writeset) == 0 && tx.rt.mode == Closed && !tx.crossShard() {
		// Every read was validated by the last Rqv round, so the read set
		// is a consistent snapshot: commit without any remote message.
		// Only QR-CN gets this: the paper defines QR-CHK's request-commit
		// and commit as "exactly the same as flat nested transaction", and
		// the FlatRqv ablation isolates early aborts, not commit savings.
		// Cross-shard footprints are excluded — the last Rqv round only
		// certified the last-touched shard's slice, so they fall through to
		// per-shard prepare (validation-only: no writes, no locks).
		m.LocalCommits.Add(1)
		return nil
	}

	reads := make([]proto.DataItem, 0, len(tx.readset))
	for _, e := range tx.readset {
		reads = append(reads, proto.DataItem{
			ID: e.copyv.ID, Version: e.copyv.Version,
			OwnerDepth: e.ownerDepth, OwnerChk: e.ownerChk,
		})
	}
	writes := make([]proto.ObjectCopy, 0, len(tx.writeset))
	for _, e := range tx.writeset {
		writes = append(writes, e.copyv.Clone())
	}

	parts, err := tx.commitParts(reads, writes, absLocks)
	if err != nil {
		return err
	}
	m.CommitRequests.Add(1)
	// One commit span covers prepare through decide; every multicast carries
	// its context, so each participant's serve-prepare/serve-decide span
	// links under it — the cross-shard atomicity checker groups them by
	// shard tag and demands one outcome.
	csp := tx.rt.obs.StartSpan(proto.SpanCommit, tx.rt.node, tx.tc)
	csp.SetTxn(tx.id)
	if tx.rt.Sharded() {
		if len(parts) == 1 {
			csp.SetShard(parts[0].shard)
		} else {
			csp.SetNote(fmt.Sprintf("shards=%d", len(parts)))
		}
	}
	defer csp.End()
	t0 := tx.rt.obs.Start()
	defer tx.rt.obs.ObserveSince(obs.SiteCommitRTT, t0)

	// Phase one: prepare every participant, in parallel so the commit
	// latency is the slowest shard's round, not the sum.
	phaseT0 := tx.rt.obs.Start()
	results := make([][]cluster.Reply, len(parts))
	forEachPart(parts, func(i int, p *commitPart) {
		prep := proto.PrepareReq{Txn: tx.id, Reads: p.reads, Writes: p.writes, AbsLocks: p.absLocks, Owner: owner, TC: csp.Context()}
		pt0 := tx.rt.obs.Start()
		results[i] = cluster.Multicast(tx.ctx, tx.rt.trans, tx.rt.node, p.writeQ, prep)
		if tx.rt.Sharded() {
			tx.rt.obs.ShardObserveSince(p.shard, obs.SiteCommitRTT, pt0)
		}
	})
	tx.rt.obs.ObserveSince(obs.SitePhasePrepare, phaseT0)

	allOK := true
	wrongShard := false
	var badReply error
	var callErr, cancelErr error
	for _, replies := range results {
		for _, rep := range replies {
			if rep.Err != nil {
				if isCtxErr(rep.Err) && tx.ctx.Err() != nil {
					cancelErr = tx.ctx.Err()
				} else {
					callErr = rep.Err
				}
				allOK = false
				continue
			}
			pr, ok := rep.Resp.(proto.PrepareRep)
			if !ok {
				badReply = fmt.Errorf("core: unexpected prepare reply %T from %v", rep.Resp, rep.Node)
				allOK = false
				continue
			}
			if pr.WrongShard {
				wrongShard = true
			}
			if !pr.OK {
				allOK = false
			}
		}
	}

	if !allOK {
		// Release any locks (object or abstract) taken by nodes that voted
		// yes — on every participant, since a no vote anywhere aborts the
		// whole transaction. Abort is idempotent and only releases this
		// transaction's own acquisitions. The release must outlive a
		// cancelled transaction context — leaked prepare locks would wedge
		// every later writer of the same objects — so it runs under its own
		// bounded context.
		if slices.ContainsFunc(parts, (*commitPart).locked) {
			dctx, cancel := context.WithTimeout(context.WithoutCancel(tx.ctx), 2*time.Second)
			forEachPart(parts, func(_ int, p *commitPart) {
				if !p.locked() {
					return
				}
				dec := proto.DecideReq{Txn: tx.id, Commit: false, Writes: p.writes, TC: csp.Context()}
				cluster.Multicast(dctx, tx.rt.trans, tx.rt.node, p.writeQ, dec)
			})
			cancel()
		}
		if badReply != nil {
			return badReply
		}
		if cancelErr != nil {
			// The transaction's context ended; surface that instead of
			// reconfiguring around a node that may be perfectly healthy.
			return cancelErr
		}
		if tx.rt.Sharded() {
			for _, p := range parts {
				tx.rt.obs.ShardAbort(p.shard)
			}
		}
		cause := obs.CauseCommitConflict
		switch {
		case wrongShard:
			// A participant is not (or no longer) the home of part of the
			// footprint: refresh the map so the retry regroups and re-routes.
			cause = obs.CauseWrongShard
			m.QuorumRefreshes.Add(1)
			if err := tx.rt.RefreshQuorums(); err != nil {
				return err
			}
		case callErr != nil:
			// A write-quorum member is down (the transport's retry budget,
			// if any, is already spent): reconfigure before retrying.
			cause = obs.CauseNodeDown
			m.QuorumRefreshes.Add(1)
			if err := tx.rt.RefreshQuorums(); err != nil {
				return err
			}
		}
		tx.noteAbort(cause, 0, proto.NoChk, "")
		tx.abortSpan(csp.Context(), cause, "", 0, proto.NoChk)
		throwAbort(0, proto.NoChk)
	}

	// Phase two: every participant voted yes — decide commit everywhere,
	// again in parallel across shards. The installed versions are stamped
	// (and recorded on the commit span) before fanning out: the span is not
	// goroutine-safe.
	installs := make([][]proto.ObjectCopy, len(parts))
	for i, p := range parts {
		if !p.locked() {
			continue
		}
		installed := make([]proto.ObjectCopy, len(p.writes))
		for j, w := range p.writes {
			w.Version++
			installed[j] = w
			csp.AddItem(w.ID, w.Version)
			tx.rt.obs.HeatWrite(w.ID)
		}
		installs[i] = installed
	}
	phaseT0 = tx.rt.obs.Start()
	forEachPart(parts, func(i int, p *commitPart) {
		if !p.locked() {
			return
		}
		dec := proto.DecideReq{Txn: tx.id, Commit: true, Writes: installs[i], TC: csp.Context()}
		// Members that crash between prepare and decide miss the install
		// harmlessly (crash-stop), but a node that RECOVERED in that window
		// must not: it may already serve in read quorums the prepared write
		// quorum never intersected. The decision therefore goes to the union
		// of the prepared quorum and the current one — identical in steady
		// state (zero extra messages), wider only across a reconfiguration.
		// Store.Commit is version-guarded and releases only this txn's
		// locks, so members that never prepared apply it safely.
		targets := p.writeQ
		if _, cur := tx.rt.shardQuorums(p.shard); len(cur) > 0 {
			targets = unionNodes(p.writeQ, cur)
		}
		cluster.Multicast(tx.ctx, tx.rt.trans, tx.rt.node, targets, dec)
	})
	tx.rt.obs.ObserveSince(obs.SitePhaseDecide, phaseT0)
	if tx.rt.Sharded() {
		for _, p := range parts {
			tx.rt.obs.ShardCommit(p.shard)
		}
	}
	csp.SetOK(true)
	return nil
}

// forEachPart runs fn over the participants — inline for the common single
// participant, concurrently otherwise (cross-shard commits pay one round of
// latency, not one per shard).
func forEachPart(parts []*commitPart, fn func(i int, p *commitPart)) {
	if len(parts) == 1 {
		fn(0, parts[0])
		return
	}
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, p)
		}()
	}
	wg.Wait()
}

// unionNodes merges two quorums preserving a's order; b's extra members
// follow. It returns a unchanged (no allocation) when b adds nothing.
func unionNodes(a, b []proto.NodeID) []proto.NodeID {
	out := a
	for _, n := range b {
		if !slices.Contains(out, n) {
			if len(out) == len(a) {
				out = append(slices.Clone(a), n)
			} else {
				out = append(out, n)
			}
		}
	}
	return out
}

// State is the program state a step-structured transaction carries between
// steps. In Checkpoint mode the engine snapshots it at every checkpoint and
// restores it on partial rollback, standing in for the paper's Java
// continuations. CloneState must deep-copy.
type State interface {
	CloneState() State
}

// NoState is the State for step programs that keep everything in the
// transactional objects themselves.
type NoState struct{}

// CloneState implements State.
func (NoState) CloneState() State { return NoState{} }

// Step is one re-entry-point-delimited unit of a step-structured
// transaction. A step may run multiple times (retries and rollbacks), so it
// must mutate st idempotently: plain assignments are safe, increments are
// not.
type Step func(tx *Txn, st State) error

// AtomicSteps runs a step-structured transaction and returns the final
// state. The same program executes under every mode:
//
//   - Flat/FlatRqv: all steps run in one flattened transaction; any
//     conflict restarts from the first step.
//   - Closed: each step is a closed-nested subtransaction (Txn.Nested).
//   - Checkpoint: the engine snapshots (footprint, state, step index)
//     whenever the footprint has grown by CheckpointEvery objects since the
//     last checkpoint, and a conflict resumes from the checkpoint named by
//     read-quorum validation.
//
// The caller's initial state is never mutated; each attempt starts from a
// clone.
func (rt *Runtime) AtomicSteps(ctx context.Context, initial State, steps []Step) (State, error) {
	if initial == nil {
		initial = NoState{}
	}
	if rt.mode == Checkpoint {
		return rt.atomicCheckpointed(ctx, initial, steps)
	}
	var out State
	err := rt.Atomic(ctx, func(tx *Txn) error {
		st := initial.CloneState()
		for _, s := range steps {
			s := s
			var stepErr error
			if rt.mode == Closed {
				stepErr = tx.Nested(func(ct *Txn) error { return s(ct, st) })
			} else {
				stepErr = s(tx, st)
			}
			if stepErr != nil {
				return stepErr
			}
		}
		out = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// chkpoint is one saved execution state of a checkpointed transaction.
type chkpoint struct {
	step     int
	state    State
	readset  map[proto.ObjectID]*entry
	writeset map[proto.ObjectID]*entry
	// fpLen is the footprint-log length at checkpoint creation; rolling back
	// rewinds the delta-Rqv log (and member watermarks) to it so discarded
	// acquisitions stop being shipped — the next delta round's reconciliation
	// drops them from replica sessions too.
	fpLen int
}

func snapshotSets(src map[proto.ObjectID]*entry) map[proto.ObjectID]*entry {
	out := make(map[proto.ObjectID]*entry, len(src))
	for id, e := range src {
		out[id] = e.clone()
	}
	return out
}

// atomicCheckpointed is the QR-CHK execution loop.
func (rt *Runtime) atomicCheckpointed(ctx context.Context, initial State, steps []Step) (State, error) {
	t0 := rt.obs.Start()
	rsp := rt.obs.StartSpan(proto.SpanRoot, rt.node, proto.TraceContext{})
	defer rsp.End()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rt.maxRetries > 0 && attempt >= rt.maxRetries {
			return nil, ErrTooManyRetries
		}
		st, id, aborted, err := rt.checkpointedAttempt(ctx, initial, steps, rsp.Context())
		if err != nil {
			return nil, err
		}
		if !aborted {
			rt.metrics.Commits.Add(1)
			rt.obs.ObserveSince(obs.SiteTxnLatency, t0)
			rt.obs.Trace(obs.Event{Kind: obs.EvCommit, Txn: uint64(id)})
			rsp.SetTxn(id)
			rsp.SetOK(true)
			return st, nil
		}
		rt.metrics.RootAborts.Add(1)
		rt.backoff(attempt)
	}
}

// checkpointedAttempt runs one full attempt with partial rollbacks handled
// internally; aborted reports a commit-time conflict (full restart). The
// attempt's transaction id is returned so the caller can stamp the commit
// trace event and root span exactly like Atomic does.
func (rt *Runtime) checkpointedAttempt(ctx context.Context, initial State, steps []Step, rtc proto.TraceContext) (st State, id proto.TxnID, aborted bool, err error) {
	tx := newRootTxn(rt, ctx)
	id = tx.id
	asp := rt.obs.StartSpan(proto.SpanAttempt, rt.node, rtc)
	asp.SetTxn(tx.id)
	defer asp.End()
	tx.tc = asp.Context()
	st = initial.CloneState()
	// Checkpoint 0 is the transaction's beginning: rolling back to it is a
	// full-footprint discard but not a fresh attempt (no backoff, same id).
	cps := []chkpoint{{
		step:     0,
		state:    st.CloneState(),
		readset:  map[proto.ObjectID]*entry{},
		writeset: map[proto.ObjectID]*entry{},
		fpLen:    0,
	}}

	i := 0
	rollbacks := 0
	for i < len(steps) {
		if err := ctx.Err(); err != nil {
			return nil, id, false, err
		}
		if i > 0 && (tx.footprint >= rt.chkEvery || tx.chkRequested) {
			tx.chkRequested = false
			cps = append(cps, chkpoint{
				step:     i,
				state:    st.CloneState(),
				readset:  snapshotSets(tx.readset),
				writeset: snapshotSets(tx.writeset),
				fpLen:    len(tx.fpLog),
			})
			tx.chkEpoch++
			tx.footprint = 0
			rt.metrics.Checkpoints.Add(1)
			rt.obs.Trace(obs.Event{Kind: obs.EvCheckpoint, Txn: uint64(tx.id), Chk: tx.chkEpoch})
			ksp := rt.obs.StartSpan(proto.SpanCheckpoint, rt.node, tx.tc)
			ksp.SetTxn(tx.id)
			ksp.SetChk(tx.chkEpoch)
			ksp.SetOK(true)
			ksp.End()
			if rt.chkCost > 0 {
				// Models the execution-state capture the paper's system
				// pays per checkpoint (Java Continuations on a custom
				// JVM); calibrated so contention-free overhead matches
				// the paper's ~6% (see the chkovh experiment).
				time.Sleep(rt.chkCost)
			}
		}
		stepAborted, chk, stepErr := runStepRecover(tx, st, steps[i])
		if stepErr != nil {
			return nil, id, false, stepErr
		}
		if stepAborted {
			if chk == proto.NoChk {
				return nil, id, true, nil // full abort requested mid-execution
			}
			// Partial rollback: restore the named checkpoint and resume.
			// Like CT retries, rollbacks are immediate until they become
			// persistent (see immediateRetries).
			rt.metrics.ChkRollbacks.Add(1)
			rt.obs.Observe(obs.SiteRollbackDepth, int64(i-cps[chk].step))
			rt.obs.Trace(obs.Event{
				Kind: obs.EvRollback, Txn: uint64(tx.id),
				Chk: chk, Note: i - cps[chk].step,
			})
			rbs := rt.obs.StartSpan(proto.SpanRollback, rt.node, tx.tc)
			rbs.SetTxn(tx.id)
			rbs.SetChk(chk)                 // target epoch being restored
			rbs.SetDepth(i - cps[chk].step) // steps discarded
			rbs.SetOK(true)
			rbs.End()
			if rollbacks++; rollbacks > immediateRetries {
				rt.backoff(rollbacks - immediateRetries)
			}
			cp := cps[chk]
			cps = cps[:chk+1]
			tx.readset = snapshotSets(cp.readset)
			tx.writeset = snapshotSets(cp.writeset)
			tx.fpRewind(cp.fpLen)
			tx.chkEpoch = chk
			tx.footprint = 0
			st = cp.state.CloneState()
			i = cp.step
			continue
		}
		i++
	}

	aborted = false
	var commitErr error
	func() {
		defer recoverAbort(&aborted)
		commitErr = tx.commitRoot()
	}()
	if commitErr != nil {
		return nil, id, false, commitErr
	}
	if aborted {
		return nil, id, true, nil
	}
	asp.SetOK(true)
	return st, id, false, nil
}

// runStepRecover executes one step, converting abort signals into
// (aborted, chk).
func runStepRecover(tx *Txn, st State, s Step) (aborted bool, chk int, err error) {
	chk = proto.NoChk
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if sig, ok := r.(abortSignal); ok && sig.depth == 0 {
			aborted = true
			chk = sig.chk
			err = nil
			return
		}
		panic(r)
	}()
	return false, proto.NoChk, s(tx, st)
}
