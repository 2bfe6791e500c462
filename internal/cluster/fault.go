package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/proto"
)

// FaultTransport decorates any Transport — the in-memory simulator or the
// real TCP transport alike — with message-level fault injection beyond
// MemTransport's crash-stop model: probabilistic request drops, added delay,
// duplicate delivery (at-least-once semantics), pooled-connection kills, and
// asymmetric link partitions. Injected faults are tagged ErrTransient (and
// ErrNodeDown, matching what a real lost request looks like to the caller),
// so RetryTransport masks them and the un-decorated caller sees them as
// suspected crashes — exactly the ambiguity the robustness layer exists to
// resolve.
//
// All knobs are safe for concurrent use and may be flipped mid-workload.
type FaultTransport struct {
	inner Transport

	mu        sync.Mutex
	rng       *rand.Rand
	drop      float64
	dup       float64
	delay     time.Duration
	jitter    time.Duration
	partition map[[2]proto.NodeID]struct{} // directed from→to cut links

	dropped     atomic.Uint64
	duplicated  atomic.Uint64
	partitioned atomic.Uint64
}

// errInjected is the root cause attached to injected faults, so tests and
// logs can tell real network trouble from injected trouble.
var errInjected = errors.New("cluster: injected fault")

// NewFaultTransport wraps inner; seed makes the injected fault pattern
// reproducible.
func NewFaultTransport(inner Transport, seed uint64) *FaultTransport {
	return &FaultTransport{
		inner:     inner,
		rng:       rand.New(rand.NewPCG(seed, 0xFA017)),
		partition: make(map[[2]proto.NodeID]struct{}),
	}
}

// SetDropRate makes each call fail (request lost) with probability p.
func (t *FaultTransport) SetDropRate(p float64) {
	t.mu.Lock()
	t.drop = p
	t.mu.Unlock()
}

// SetDuplicateRate makes each call deliver its request twice with
// probability p — the extra delivery's reply is discarded. Handlers must be
// idempotent for duplicated delivery to be harmless, which the replica
// protocol guarantees (prepares re-vote, commits are version-guarded).
func (t *FaultTransport) SetDuplicateRate(p float64) {
	t.mu.Lock()
	t.dup = p
	t.mu.Unlock()
}

// SetDelay adds base plus uniform jitter in [0, jitter) of extra latency in
// front of every forwarded call.
func (t *FaultTransport) SetDelay(base, jitter time.Duration) {
	t.mu.Lock()
	t.delay, t.jitter = base, jitter
	t.mu.Unlock()
}

// Partition cuts the directed link from→to: calls in that direction fail as
// transient faults while the reverse direction keeps working (asymmetric
// partition). Cut both directions for a full partition.
func (t *FaultTransport) Partition(from, to proto.NodeID) {
	t.mu.Lock()
	t.partition[[2]proto.NodeID{from, to}] = struct{}{}
	t.mu.Unlock()
}

// Heal restores the directed link from→to.
func (t *FaultTransport) Heal(from, to proto.NodeID) {
	t.mu.Lock()
	delete(t.partition, [2]proto.NodeID{from, to})
	t.mu.Unlock()
}

// KillConnections closes the inner transport's pooled idle connections (TCP
// only; a no-op on transports without a pool). The next calls must re-dial,
// exercising the reconnect path mid-workload.
func (t *FaultTransport) KillConnections() {
	if ik, ok := t.inner.(interface{ CloseIdle() }); ok {
		ik.CloseIdle()
	}
}

// FaultCounts is a snapshot of the faults injected so far.
type FaultCounts struct {
	Dropped     uint64
	Duplicated  uint64
	Partitioned uint64
}

// Faults returns how many faults have been injected.
func (t *FaultTransport) Faults() FaultCounts {
	return FaultCounts{
		Dropped:     t.dropped.Load(),
		Duplicated:  t.duplicated.Load(),
		Partitioned: t.partitioned.Load(),
	}
}

// Stats merges the inner transport's counters (when it exposes them) with
// this decorator's injected-fault counters, so the injection record survives
// any decorator stacking order (see the Stats decorator contract).
func (t *FaultTransport) Stats() Stats {
	var s Stats
	if src, ok := t.inner.(StatsSource); ok {
		s = src.Stats()
	}
	return s.merge(Stats{
		Dropped:     t.dropped.Load(),
		Duplicated:  t.duplicated.Load(),
		Partitioned: t.partitioned.Load(),
	})
}

// roll samples the per-call fault decisions under one lock acquisition.
func (t *FaultTransport) roll(from, to proto.NodeID) (cut, drop, dup bool, wait time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, cut = t.partition[[2]proto.NodeID{from, to}]
	if cut {
		return true, false, false, 0
	}
	drop = t.drop > 0 && t.rng.Float64() < t.drop
	dup = t.dup > 0 && t.rng.Float64() < t.dup
	wait = t.delay
	if t.jitter > 0 {
		wait += time.Duration(t.rng.Int64N(int64(t.jitter)))
	}
	return false, drop, dup, wait
}

// Call implements Transport.
func (t *FaultTransport) Call(ctx context.Context, from, to proto.NodeID, req any) (any, error) {
	cut, drop, dup, wait := t.roll(from, to)
	if cut {
		t.partitioned.Add(1)
		return nil, errors.Join(ErrNodeDown, ErrTransient,
			fmt.Errorf("%w: link %v→%v partitioned", errInjected, from, to))
	}
	if drop {
		t.dropped.Add(1)
		return nil, errors.Join(ErrNodeDown, ErrTransient,
			fmt.Errorf("%w: request %v→%v dropped", errInjected, from, to))
	}
	if wait > 0 {
		if err := sleepCtx(ctx, wait); err != nil {
			return nil, err
		}
	}
	if dup {
		t.duplicated.Add(1)
		// At-least-once delivery: the request reaches the handler twice; the
		// first reply is lost, the second is returned.
		_, _ = t.inner.Call(ctx, from, to, req)
	}
	return t.inner.Call(ctx, from, to, req)
}
