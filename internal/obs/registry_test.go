package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestNilRegistryNoops is the zero-cost contract: every method on a nil
// *Registry must be a safe no-op, and Start must return the zero time so
// ObserveSince skips the clock read.
func TestNilRegistryNoops(t *testing.T) {
	var r *Registry
	if t0 := r.Start(); !t0.IsZero() {
		t.Errorf("nil Start() = %v, want zero time", t0)
	}
	r.ObserveSince(SiteTxnLatency, time.Now())
	r.Observe(SiteBackoff, 42)
	r.Abort(CauseLockDenied)

	// A nil registry still snapshots with the full key set so consumers can
	// index unconditionally.
	s := r.Snapshot()
	if len(s.Sites) != len(Sites) || len(s.Aborts) != len(Causes) {
		t.Fatalf("nil snapshot keys: %d sites, %d aborts", len(s.Sites), len(s.Aborts))
	}
	for _, site := range Sites {
		if st := s.Sites[site.String()]; st.Count != 0 {
			t.Errorf("nil snapshot site %v nonzero: %+v", site, st)
		}
	}
	for _, c := range Causes {
		if s.Aborts[c.String()] != 0 {
			t.Errorf("nil snapshot abort %v nonzero", c)
		}
	}
}

func TestRegistryObserveAndAbort(t *testing.T) {
	r := NewRegistry()
	r.Observe(SiteRollbackDepth, 3)
	r.Observe(SiteRollbackDepth, 5)
	r.ObserveSince(SiteTxnLatency, time.Now().Add(-2*time.Millisecond))
	r.ObserveSince(SiteTxnLatency, time.Time{}) // zero time: must not record
	r.Abort(CauseReadValidation)
	r.Abort(CauseReadValidation)
	r.Abort(CauseNodeDown)

	s := r.Snapshot()
	if got := s.Sites[SiteRollbackDepth.String()]; got.Count != 2 {
		t.Errorf("rollback_depth count = %d, want 2", got.Count)
	}
	if got := s.Sites[SiteTxnLatency.String()]; got.Count != 1 || got.P50Ms < 1 {
		t.Errorf("txn_latency = %+v, want 1 sample around 2ms", got)
	}
	if s.Aborts["read-validation"] != 2 || s.Aborts["node-down"] != 1 || s.Aborts["lock-denied"] != 0 {
		t.Errorf("aborts = %v", s.Aborts)
	}
	// Hists carries the mergeable form for the same data.
	if s.Hists[SiteRollbackDepth].Count != 2 {
		t.Errorf("Hists[rollback_depth].Count = %d", s.Hists[SiteRollbackDepth].Count)
	}

	// The snapshot must serialize cleanly (admin /metrics path).
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if bytes.Contains(b, []byte("Hists")) {
		t.Error("raw bucket data leaked into JSON")
	}
}

func TestEnumStrings(t *testing.T) {
	for _, site := range Sites {
		if site.String() == "site(?)" || site.String() == "" {
			t.Errorf("site %d has no name", int(site))
		}
	}
	for _, c := range Causes {
		if c.String() == "cause(?)" || c.String() == "" {
			t.Errorf("cause %d has no name", int(c))
		}
	}
	if Site(-1).String() != "site(?)" || AbortCause(99).String() != "cause(?)" {
		t.Error("out-of-range enums must not panic")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Record(v)
			v = (v*2862933555777941757 + 3037000493) & 0x3fffffff
		}
	})
}

func BenchmarkRegistryNil(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := r.Start()
		r.ObserveSince(SiteTxnLatency, t0)
		r.Abort(CauseReadValidation)
	}
}
