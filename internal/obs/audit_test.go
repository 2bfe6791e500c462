package obs

import (
	"sync"
	"testing"
	"time"

	"qrdtm/internal/proto"
)

// auditFixture loads spans into a fresh traced registry and returns it with
// its auditor (driven by Poll directly — no goroutine — for determinism).
func auditFixture(t *testing.T, ringSize int, spans []proto.Span) (*Registry, *Auditor) {
	t.Helper()
	reg := NewRegistry().WithSpans(NewSpanBuffer(ringSize))
	a := NewAuditor(reg, AuditorConfig{})
	if a == nil {
		t.Fatal("NewAuditor returned nil for a traced registry")
	}
	for _, s := range spans {
		reg.Spans().Add(s)
	}
	return reg, a
}

func TestAuditorRequiresSpanBuffer(t *testing.T) {
	if a := NewAuditor(NewRegistry(), AuditorConfig{}); a != nil {
		t.Fatal("NewAuditor accepted a registry without a span buffer")
	}
	// Nil auditors no-op everywhere (the qr-node -audit flag composes with
	// tracing off).
	var a *Auditor
	a.Start()
	a.Poll(true)
	a.Stop()
	if s := a.Stats(); s != (AuditStats{}) {
		t.Fatalf("nil auditor stats = %+v", s)
	}
}

func TestAuditorCleanRun(t *testing.T) {
	_, a := auditFixture(t, 4096, validTimeline())
	a.Poll(true)
	s := a.Stats()
	if s.Violations != 0 {
		t.Fatalf("clean timeline produced violations: %+v (last: %s)", s, s.LastViolation)
	}
	if s.Traces != 2 {
		t.Fatalf("audited %d traces, want 2", s.Traces)
	}
	if s.GapSpans != 0 {
		t.Fatalf("gap spans = %d on an unwrapped ring", s.GapSpans)
	}
	if s.Spans != uint64(len(validTimeline())) {
		t.Fatalf("drained %d spans, want %d", s.Spans, len(validTimeline()))
	}
}

func TestAuditorCatchesViolation(t *testing.T) {
	// Same corruption as TestCheckTraceCatchesStaleRead: T2's read reports a
	// version T1's completed commit already superseded.
	reg, a := auditFixture(t, 4096, corrupt(t, 13, func(s *proto.Span) { s.Version = 1 }))
	a.Poll(true)
	s := a.Stats()
	if s.Violations == 0 {
		t.Fatal("auditor missed a stale-read violation CheckTrace catches")
	}
	if s.LastViolation == "" {
		t.Fatal("violation recorded but LastViolation empty")
	}
	// The violation counter rides the registry as a gauge, so any /metrics
	// scrape (JSON or Prometheus) carries the verdict.
	if g := reg.Snapshot().Gauges; g["audit_violations"] == 0 {
		t.Fatalf("audit_violations gauge not exported: %v", g)
	}
}

func TestAuditorCountsRingGaps(t *testing.T) {
	spans := make([]proto.Span, 20)
	for i := range spans {
		spans[i] = proto.Span{Trace: uint64(i + 1), ID: uint64(i + 1), Kind: proto.SpanRoot, OK: false}
	}
	_, a := auditFixture(t, 8, spans)
	a.Poll(true)
	if s := a.Stats(); s.GapSpans != 12 {
		t.Fatalf("gap spans = %d, want 12 (20 spans through an 8-slot ring)", s.GapSpans)
	}
}

func TestAuditorIncrementalQuiescence(t *testing.T) {
	reg := NewRegistry().WithSpans(NewSpanBuffer(4096))
	a := NewAuditor(reg, AuditorConfig{Settle: time.Millisecond})
	timeline := validTimeline()
	// Drain everything but the roots: no trace quiesces (rootDone false).
	for _, s := range timeline {
		if s.Kind != proto.SpanRoot {
			reg.Spans().Add(s)
		}
	}
	a.Poll(false)
	if s := a.Stats(); s.Traces != 0 {
		t.Fatalf("audited %d traces before any root landed", s.Traces)
	}
	// Roots land; after the settle window a plain poll audits both traces.
	for _, s := range timeline {
		if s.Kind == proto.SpanRoot {
			reg.Spans().Add(s)
		}
	}
	a.Poll(false) // drains the roots, starts their settle clocks
	time.Sleep(5 * time.Millisecond)
	a.Poll(false)
	s := a.Stats()
	if s.Traces != 2 || s.Violations != 0 {
		t.Fatalf("after settle: %+v, want 2 clean traces", s)
	}
}

func TestAuditorStopFlushes(t *testing.T) {
	reg := NewRegistry().WithSpans(NewSpanBuffer(4096))
	// An interval far beyond the test's lifetime: only Stop's flush can audit.
	a := NewAuditor(reg, AuditorConfig{Interval: time.Hour})
	a.Start()
	for _, s := range validTimeline() {
		reg.Spans().Add(s)
	}
	a.Stop()
	if s := a.Stats(); s.Traces != 2 {
		t.Fatalf("Stop did not flush pending traces: %+v", s)
	}
	a.Stop() // idempotent
}

// TestAuditorPollConcurrentWithGoroutine drives Poll from several callers
// while the started auditor's own goroutine polls too (a caller bringing the
// counters up to date on demand): under -race this must report nothing, and
// every trace must be audited exactly once.
func TestAuditorPollConcurrentWithGoroutine(t *testing.T) {
	_, a := auditFixture(t, 4096, validTimeline())
	a.interval, a.settle = time.Millisecond, time.Millisecond
	a.Start()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a.Poll(i%10 == 9)
			}
		}()
	}
	wg.Wait()
	a.Stop()
	if s := a.Stats(); s.Traces != 2 || s.Violations != 0 || s.Spans != uint64(len(validTimeline())) {
		t.Fatalf("stats = %+v, want 2 traces, no violations, %d spans", s, len(validTimeline()))
	}
}

func TestSpansSince(t *testing.T) {
	b := NewSpanBuffer(8)
	add := func(n int) {
		for i := 0; i < n; i++ {
			b.Add(proto.Span{Trace: 1, ID: b.Seen() + 1})
		}
	}
	add(3)
	spans, cur, dropped := b.SpansSince(0)
	if len(spans) != 3 || cur != 3 || dropped != 0 {
		t.Fatalf("first drain: %d spans, cursor %d, dropped %d", len(spans), cur, dropped)
	}
	// Nothing new: same cursor back, no spans.
	if spans, cur2, _ := b.SpansSince(cur); len(spans) != 0 || cur2 != cur {
		t.Fatalf("idle drain moved the cursor: %d spans, cursor %d", len(spans), cur2)
	}
	// Overrun: 10 more spans through the 8-slot ring laps the reader by 5.
	add(10)
	spans, cur, dropped = b.SpansSince(cur)
	if dropped != 2 || len(spans) != 8 || cur != 13 {
		t.Fatalf("overrun drain: %d spans, cursor %d, dropped %d (want 8/13/2)", len(spans), cur, dropped)
	}
	if st := b.Stats(); st.Dropped != 5 {
		t.Fatalf("Stats().Dropped = %d, want 5 (13 seen - 8 cap)", st.Dropped)
	}
	// Nil-safety.
	var nilBuf *SpanBuffer
	if spans, cur, dropped := nilBuf.SpansSince(0); spans != nil || cur != 0 || dropped != 0 {
		t.Fatal("nil buffer SpansSince not a no-op")
	}
	if st := nilBuf.Stats(); st != (SpanBufStats{}) {
		t.Fatalf("nil buffer Stats = %+v, want zero", st)
	}
}
