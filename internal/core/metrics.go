package core

import "sync/atomic"

// Metrics aggregates client-side protocol counters. A single Metrics value
// is typically shared by every Runtime of an experiment so that the harness
// can report cluster-wide rates. All counters are updated atomically.
type Metrics struct {
	// Commits counts successfully committed root transactions.
	Commits atomic.Uint64
	// LocalCommits counts the subset of Commits that completed without a
	// commit request (read-only transactions under Rqv).
	LocalCommits atomic.Uint64
	// RootAborts counts full aborts (commit-time conflicts and, for flat
	// transactions, read-validation conflicts).
	RootAborts atomic.Uint64
	// CTAborts counts partial aborts of closed-nested transactions.
	CTAborts atomic.Uint64
	// CTCommits counts local (merge) commits of closed-nested transactions.
	CTCommits atomic.Uint64
	// ChkRollbacks counts partial rollbacks to a checkpoint.
	ChkRollbacks atomic.Uint64
	// Checkpoints counts checkpoint creations.
	Checkpoints atomic.Uint64
	// ReadRequests counts read-quorum multicasts (one per remote read).
	ReadRequests atomic.Uint64
	// LocalReads counts reads satisfied from the transaction's own or an
	// ancestor's footprint without any remote call.
	LocalReads atomic.Uint64
	// PrefetchHits counts acquisitions served from the link-prefetch cache:
	// copies a replica shipped with an earlier round's reply, so the object
	// cost no read round of its own.
	PrefetchHits atomic.Uint64
	// CommitRequests counts write-quorum prepare multicasts.
	CommitRequests atomic.Uint64
	// QuorumRefreshes counts quorum reconfigurations after node failures.
	QuorumRefreshes atomic.Uint64
	// LockWaits counts reads re-issued after a lock-only denial instead of
	// aborting (contention-manager policy, Config.LockWaitRetries).
	LockWaits atomic.Uint64
	// OpenCommits counts committed open-nested subtransactions (QR-ON).
	OpenCommits atomic.Uint64
	// OpenAborts counts aborted attempts of open-nested subtransactions.
	OpenAborts atomic.Uint64
	// Compensations counts compensating transactions run for root aborts.
	Compensations atomic.Uint64
}

// MetricsSnapshot is a plain-value copy of Metrics.
type MetricsSnapshot struct {
	Commits         uint64
	LocalCommits    uint64
	RootAborts      uint64
	CTAborts        uint64
	CTCommits       uint64
	ChkRollbacks    uint64
	Checkpoints     uint64
	ReadRequests    uint64
	LocalReads      uint64
	PrefetchHits    uint64
	CommitRequests  uint64
	QuorumRefreshes uint64
	LockWaits       uint64
	OpenCommits     uint64
	OpenAborts      uint64
	Compensations   uint64
}

// Snapshot copies all counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Commits:         m.Commits.Load(),
		LocalCommits:    m.LocalCommits.Load(),
		RootAborts:      m.RootAborts.Load(),
		CTAborts:        m.CTAborts.Load(),
		CTCommits:       m.CTCommits.Load(),
		ChkRollbacks:    m.ChkRollbacks.Load(),
		Checkpoints:     m.Checkpoints.Load(),
		ReadRequests:    m.ReadRequests.Load(),
		LocalReads:      m.LocalReads.Load(),
		PrefetchHits:    m.PrefetchHits.Load(),
		CommitRequests:  m.CommitRequests.Load(),
		QuorumRefreshes: m.QuorumRefreshes.Load(),
		LockWaits:       m.LockWaits.Load(),
		OpenCommits:     m.OpenCommits.Load(),
		OpenAborts:      m.OpenAborts.Load(),
		Compensations:   m.Compensations.Load(),
	}
}

// TotalAborts sums full and partial aborts — the quantity the paper's
// Figure 8 reports ("root and child transaction aborts", with checkpoint
// rollbacks counted for QR-CHK).
func (s MetricsSnapshot) TotalAborts() uint64 {
	return s.RootAborts + s.CTAborts + s.ChkRollbacks
}

// ProtocolRequests sums read and commit requests — the "messages exchanged"
// quantity of Figure 8 (quorum fan-out is accounted separately by the
// transport's message counter).
func (s MetricsSnapshot) ProtocolRequests() uint64 {
	return s.ReadRequests + s.CommitRequests
}

// Sub returns s - o field-wise (for measuring a window between snapshots).
func (s MetricsSnapshot) Sub(o MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		Commits:         s.Commits - o.Commits,
		LocalCommits:    s.LocalCommits - o.LocalCommits,
		RootAborts:      s.RootAborts - o.RootAborts,
		CTAborts:        s.CTAborts - o.CTAborts,
		CTCommits:       s.CTCommits - o.CTCommits,
		ChkRollbacks:    s.ChkRollbacks - o.ChkRollbacks,
		Checkpoints:     s.Checkpoints - o.Checkpoints,
		ReadRequests:    s.ReadRequests - o.ReadRequests,
		LocalReads:      s.LocalReads - o.LocalReads,
		PrefetchHits:    s.PrefetchHits - o.PrefetchHits,
		CommitRequests:  s.CommitRequests - o.CommitRequests,
		QuorumRefreshes: s.QuorumRefreshes - o.QuorumRefreshes,
		LockWaits:       s.LockWaits - o.LockWaits,
		OpenCommits:     s.OpenCommits - o.OpenCommits,
		OpenAborts:      s.OpenAborts - o.OpenAborts,
		Compensations:   s.Compensations - o.Compensations,
	}
}
