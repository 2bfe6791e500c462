package core

import (
	"errors"
	"fmt"

	"qrdtm/internal/cluster"
	"qrdtm/internal/proto"
)

// This file implements open nesting (QR-ON) — the third nesting model of
// the paper's taxonomy, which it discusses through TFA-ON and the
// open-nesting HTM literature but leaves unimplemented for replicated DTM.
// An open-nested subtransaction commits to the whole system immediately,
// before its parent; semantic conflicts between such early commits are
// prevented by abstract locks (named, held by the enclosing root until it
// finishes), and a parent abort undoes the already-visible effects by
// running programmer-supplied compensations.
//
// Abstract locks are granted during the subtransaction's prepare at the
// write quorum of the shard each lock name routes to, exactly like an
// object; pairwise-intersecting write quorums make the grant mutually
// exclusive. The root records the names it holds and releases them with a
// ReleaseReq multicast to those shards' write quorums when it commits, or
// after compensating when it gives up an attempt.

// ErrOpenInCheckpointed rejects Txn.Open inside checkpointed step programs:
// a partial rollback would re-execute the step and double-apply the open
// subtransaction's already-committed effects.
var ErrOpenInCheckpointed = errors.New("core: Open is not supported in Checkpoint mode")

// openRecord remembers one committed open subtransaction.
type openRecord struct {
	compensate func(*Txn) error
}

// Open runs body as an open-nested subtransaction: an independent
// transaction that commits globally right away, acquiring the given
// abstract locks on behalf of the enclosing root. The locks stay held until
// the root transaction finally commits or abandons the attempt, keeping
// other open subtransactions that need the same locks out — the
// serialization is semantic (lock names), not physical (object versions).
//
// compensate is the semantic inverse of body. If the enclosing root aborts
// after body has committed, compensate runs as its own transaction before
// the root retries; it must be written to restore the abstraction's state
// (e.g. re-increment what body decremented). A nil compensate means the
// effect is harmless to keep (e.g. appending to a log).
//
// Open is intended to be called directly from a root transaction body
// (Flat or Closed mode). Calling it inside a closed-nested subtransaction
// is allowed, but the CT's own retries will re-run body — compensations
// only run on root aborts — so body/compensate must then form an exact
// inverse pair under repetition. Checkpoint mode is rejected.
func (tx *Txn) Open(locks []string, body func(*Txn) error, compensate func(*Txn) error) error {
	rt := tx.rt
	if rt.mode == Checkpoint {
		return ErrOpenInCheckpointed
	}
	root := tx.root()
	// The open child commits on its own: a linked copy the parent prefetched
	// may be stale once it has (link-prefetch rule 1, see usePrefetched).
	tx.dropPrefetch()

	for attempt := 0; ; attempt++ {
		if err := tx.ctx.Err(); err != nil {
			return err
		}
		if rt.maxRetries > 0 && attempt >= rt.maxRetries {
			return ErrTooManyRetries
		}
		// An independent transaction: fresh id, no parent chain — open
		// subtransactions must not read their parent's uncommitted writes,
		// because those writes would otherwise leak into a commit that
		// becomes visible before the parent's.
		ot := newRootTxn(rt, tx.ctx)
		// The open subtransaction commits under its own TxnID but traces as
		// part of the enclosing transaction's causal tree.
		osp := rt.obs.StartSpan(proto.SpanAttempt, rt.node, tx.tc)
		osp.SetTxn(ot.id)
		osp.SetNote("open")
		ot.tc = osp.Context()
		aborted, err := rt.attemptOpen(ot, body, locks, root.id)
		osp.SetOK(err == nil && !aborted)
		osp.End()
		if err != nil {
			return err
		}
		if !aborted {
			root.openCommits = append(root.openCommits, openRecord{compensate: compensate})
			root.absLocks = append(root.absLocks, locks...)
			rt.metrics.OpenCommits.Add(1)
			return nil
		}
		rt.metrics.OpenAborts.Add(1)
		rt.backoff(attempt)
	}
}

// attemptOpen is attemptRoot for an open subtransaction: same body/commit
// shape, but the commit carries the abstract locks and their owner.
func (rt *Runtime) attemptOpen(ot *Txn, body func(*Txn) error, locks []string, owner proto.TxnID) (aborted bool, err error) {
	defer recoverAbort(&aborted)
	bodyErr := rt.runBody(ot, body)
	if bodyErr != nil {
		if errors.Is(bodyErr, errZombie) {
			return true, nil
		}
		return false, bodyErr
	}
	return false, ot.commit(locks, owner)
}

// finishOpen cleans up a root's open-nesting state when an attempt ends:
// on abort it runs compensations (latest first) as fresh transactions; in
// both cases it releases the root's abstract locks. Errors from
// compensations are returned — a failed compensation leaves the abstraction
// inconsistent and must surface rather than retry silently.
func (rt *Runtime) finishOpen(tx *Txn, rootAborted bool) error {
	if len(tx.openCommits) == 0 && len(tx.absLocks) == 0 {
		return nil
	}
	var firstErr error
	if rootAborted {
		for i := len(tx.openCommits) - 1; i >= 0; i-- {
			comp := tx.openCommits[i].compensate
			if comp == nil {
				continue
			}
			rt.metrics.Compensations.Add(1)
			if err := rt.Atomic(tx.ctx, comp); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("core: compensation failed: %w", err)
			}
		}
	}
	if len(tx.absLocks) > 0 {
		// Each lock was granted by its own shard's write quorum (commitParts).
		m := rt.ShardMap()
		var targets []proto.NodeID
		for _, l := range tx.absLocks {
			targets = unionNodes(targets, rt.route(m.ShardFor(proto.ObjectID(l))).write)
		}
		cluster.Multicast(tx.ctx, rt.trans, rt.node, targets, proto.ReleaseReq{Owner: tx.id, TC: tx.tc})
	}
	return firstErr
}
