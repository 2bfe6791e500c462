package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/proto"
)

// The streaming auditor turns CheckTrace from a post-hoc test oracle into an
// always-on invariant monitor: a background goroutine incrementally drains
// the registry's span buffer (a cursor over Seen(), never a full copy),
// groups spans by trace, and runs the protocol checker over every trace that
// has quiesced — root span recorded and no new spans for a settle window.
// Violations become counters an operator can alarm on via /metrics and
// /healthz instead of discovering them in a failed test run days later.
//
// Window semantics: each Poll audits the batch of traces that quiesced since
// the last one, so the cross-trace invariants (read consistency, version
// monotonicity) are checked within that sliding window. A window sees a
// subset of the full run's spans, and every ordering constraint over a
// subset also holds over the full set, so windowed checking can miss a
// cross-window violation but never fabricates one — zero false positives.
//
// Completeness is explicit, not assumed: if the ring overwrites spans faster
// than the auditor drains them, the lost count is surfaced as GapSpans
// ("audit incomplete") rather than silently auditing a hole, and traces
// whose parents were lost are counted Incomplete, mirroring CheckTrace's
// offline discipline.

// AuditorConfig tunes the streaming auditor. The zero value gets defaults.
type AuditorConfig struct {
	// Interval is the poll cadence (default 100ms).
	Interval time.Duration
	// Settle is how long a trace must stay quiet after its root span landed
	// before it is audited (default 500ms) — long enough for a replica's
	// serve spans to be merged in deployments that feed one buffer, short
	// enough that a violation surfaces within a second.
	Settle time.Duration
	// MaxPending caps the number of unquiesced traces held; beyond it the
	// entire backlog is audited immediately (default 4096).
	MaxPending int
}

// AuditStats is the auditor's externally visible state.
type AuditStats struct {
	Spans      uint64 `json:"spans"`      // spans drained from the buffer
	Traces     uint64 `json:"traces"`     // complete traces audited
	Incomplete uint64 `json:"incomplete"` // traces skipped (dangling parents)
	Violations uint64 `json:"violations"` // invariant violations found
	// GapSpans counts spans lost to ring overwrites before the auditor could
	// read them; nonzero means the audit has holes ("audit incomplete").
	GapSpans      uint64 `json:"gap_spans"`
	LastViolation string `json:"last_violation,omitempty"`
}

// pendingTrace accumulates one trace's spans until it quiesces.
type pendingTrace struct {
	spans    []proto.Span
	ids      map[uint64]struct{}
	last     time.Time // when the trace last grew (auditor's clock)
	rootDone bool
}

// Auditor is the always-on streaming trace auditor. Create with NewAuditor,
// Start it, and Stop it at shutdown (Stop flushes and audits everything
// still pending, so end-of-run stats are complete).
type Auditor struct {
	reg        *Registry
	interval   time.Duration
	settle     time.Duration
	maxPending int

	// Poll state, guarded by pollMu: the audit goroutine and callers of
	// Poll (tests, and runs that audit on demand) may poll concurrently.
	pollMu  sync.Mutex
	cursor  uint64
	pending map[uint64]*pendingTrace

	spans      atomic.Uint64
	traces     atomic.Uint64
	incomplete atomic.Uint64
	violations atomic.Uint64
	gaps       atomic.Uint64

	vmu           sync.Mutex
	lastViolation string

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	doneCh    chan struct{}
}

// NewAuditor builds an auditor over the registry's span buffer and registers
// its counters as gauges on the same registry, so audit state rides every
// /metrics scrape (JSON and Prometheus) without extra wiring. Returns nil
// when the registry has no span buffer — nothing to audit.
func NewAuditor(reg *Registry, cfg AuditorConfig) *Auditor {
	if reg.Spans() == nil {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 500 * time.Millisecond
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	a := &Auditor{
		reg:        reg,
		interval:   cfg.Interval,
		settle:     cfg.Settle,
		maxPending: cfg.MaxPending,
		pending:    make(map[uint64]*pendingTrace),
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
	reg.RegisterGauge("audit_spans", func() int64 { return int64(a.spans.Load()) })
	reg.RegisterGauge("audit_traces", func() int64 { return int64(a.traces.Load()) })
	reg.RegisterGauge("audit_incomplete", func() int64 { return int64(a.incomplete.Load()) })
	reg.RegisterGauge("audit_violations", func() int64 { return int64(a.violations.Load()) })
	reg.RegisterGauge("audit_gap_spans", func() int64 { return int64(a.gaps.Load()) })
	return a
}

// Start launches the background polling goroutine. Safe to call once; nil
// auditors no-op.
func (a *Auditor) Start() {
	if a == nil {
		return
	}
	a.startOnce.Do(func() {
		go func() {
			defer close(a.doneCh)
			t := time.NewTicker(a.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					a.Poll(false)
				case <-a.stopCh:
					return
				}
			}
		}()
	})
}

// Stop halts the background goroutine and runs one final flushing poll that
// audits every pending trace regardless of settle, so shutdown-time Stats
// reflect the whole run. Safe to call more than once; nil auditors no-op.
func (a *Auditor) Stop() {
	if a == nil {
		return
	}
	a.stopOnce.Do(func() {
		close(a.stopCh)
		a.startOnce.Do(func() { close(a.doneCh) }) // never started: unblock the wait
		<-a.doneCh
		a.Poll(true)
	})
}

// Poll runs one audit increment: drain new spans, then audit every quiesced
// trace (all pending traces when flush is set). Exposed so tests and
// non-goroutine deployments can drive the auditor deterministically, and so
// a caller can bring a started auditor's counters up to date on demand; it
// is safe concurrently with the auditor's own goroutine.
func (a *Auditor) Poll(flush bool) {
	if a == nil {
		return
	}
	a.pollMu.Lock()
	defer a.pollMu.Unlock()
	spans, next, dropped := a.reg.Spans().SpansSince(a.cursor)
	a.cursor = next
	if dropped > 0 {
		a.gaps.Add(dropped)
	}
	now := time.Now()
	for i := range spans {
		s := &spans[i]
		pt := a.pending[s.Trace]
		if pt == nil {
			pt = &pendingTrace{ids: make(map[uint64]struct{}, 8)}
			a.pending[s.Trace] = pt
		}
		if _, dup := pt.ids[s.ID]; dup {
			continue
		}
		pt.ids[s.ID] = struct{}{}
		pt.spans = append(pt.spans, *s)
		pt.last = now
		if s.Kind == proto.SpanRoot {
			pt.rootDone = true
		}
	}
	a.spans.Add(uint64(len(spans)))

	if len(a.pending) > a.maxPending {
		flush = true // backlog cap: audit everything rather than grow unbounded
	}
	var batch []proto.Span
	for trace, pt := range a.pending {
		if flush || (pt.rootDone && now.Sub(pt.last) >= a.settle) {
			batch = append(batch, pt.spans...)
			delete(a.pending, trace)
		}
	}
	if len(batch) == 0 {
		return
	}
	res := CheckTrace(batch)
	a.traces.Add(uint64(res.Traces))
	a.incomplete.Add(uint64(res.Incomplete))
	if n := len(res.Violations); n > 0 {
		a.violations.Add(uint64(n))
		a.vmu.Lock()
		a.lastViolation = res.Violations[0].String()
		a.vmu.Unlock()
	}
}

// Stats returns the auditor's counters. Safe concurrently with a running
// auditor; nil auditors return zeros.
func (a *Auditor) Stats() AuditStats {
	if a == nil {
		return AuditStats{}
	}
	a.vmu.Lock()
	last := a.lastViolation
	a.vmu.Unlock()
	return AuditStats{
		Spans:         a.spans.Load(),
		Traces:        a.traces.Load(),
		Incomplete:    a.incomplete.Load(),
		Violations:    a.violations.Load(),
		GapSpans:      a.gaps.Load(),
		LastViolation: last,
	}
}

// String renders a one-line summary for logs and health output.
func (s AuditStats) String() string {
	return fmt.Sprintf("audited %d traces (%d spans, %d incomplete): %d violations, %d gap spans",
		s.Traces, s.Spans, s.Incomplete, s.Violations, s.GapSpans)
}
