package core

import (
	"reflect"
	"testing"
)

// fill sets every counter of a Metrics to a distinct value derived from base,
// via reflection so a newly added counter can't silently escape the tests.
func fill(m *Metrics, base uint64) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(interface{ Store(uint64) }).Store(base + uint64(i))
	}
}

// TestMetricsSnapshotCoversAllCounters pins Snapshot and Sub to the full
// field set: every Metrics counter must appear in MetricsSnapshot and be
// copied/subtracted field-wise.
func TestMetricsSnapshotCoversAllCounters(t *testing.T) {
	mt := reflect.TypeOf(Metrics{})
	st := reflect.TypeOf(MetricsSnapshot{})
	if mt.NumField() != st.NumField() {
		t.Fatalf("Metrics has %d fields, MetricsSnapshot has %d — keep them in sync",
			mt.NumField(), st.NumField())
	}
	for i := 0; i < mt.NumField(); i++ {
		if mt.Field(i).Name != st.Field(i).Name {
			t.Errorf("field %d: Metrics.%s vs MetricsSnapshot.%s", i, mt.Field(i).Name, st.Field(i).Name)
		}
	}

	var m Metrics
	fill(&m, 100)
	s := m.Snapshot()
	sv := reflect.ValueOf(s)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Uint(), 100+uint64(i); got != want {
			t.Errorf("Snapshot().%s = %d, want %d", st.Field(i).Name, got, want)
		}
	}

	// Sub of two full snapshots must subtract every field (a field missing
	// from Sub would survive here as a nonzero residue ≠ the window delta).
	var m2 Metrics
	fill(&m2, 1000)
	d := m2.Snapshot().Sub(s)
	dv := reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		if got := dv.Field(i).Uint(); got != 900 {
			t.Errorf("Sub().%s = %d, want 900", st.Field(i).Name, got)
		}
	}
}

// TestMetricsSnapshotIdentities is the table-driven check of the windowed
// aggregate identities the harness (and the paper's Figure 8) relies on.
func TestMetricsSnapshotIdentities(t *testing.T) {
	cases := []struct {
		name             string
		before, after    MetricsSnapshot
		wantTotalAborts  uint64
		wantProtocolReqs uint64
		wantWindow       MetricsSnapshot
	}{
		{
			name:  "zero window",
			after: MetricsSnapshot{},
		},
		{
			name: "flat txn aborts only",
			after: MetricsSnapshot{
				Commits: 10, RootAborts: 4,
				ReadRequests: 30, CommitRequests: 10,
			},
			wantTotalAborts:  4,
			wantProtocolReqs: 40,
			wantWindow: MetricsSnapshot{
				Commits: 10, RootAborts: 4,
				ReadRequests: 30, CommitRequests: 10,
			},
		},
		{
			name: "closed nesting: partial aborts add in",
			after: MetricsSnapshot{
				Commits: 8, RootAborts: 2, CTAborts: 5, CTCommits: 20,
				ReadRequests: 50, LocalReads: 12, CommitRequests: 8,
			},
			wantTotalAborts:  7, // 2 root + 5 partial
			wantProtocolReqs: 58,
			wantWindow: MetricsSnapshot{
				Commits: 8, RootAborts: 2, CTAborts: 5, CTCommits: 20,
				ReadRequests: 50, LocalReads: 12, CommitRequests: 8,
			},
		},
		{
			name: "checkpointing: rollbacks count as aborts",
			after: MetricsSnapshot{
				Commits: 9, RootAborts: 1, ChkRollbacks: 6, Checkpoints: 27,
				ReadRequests: 40, CommitRequests: 9,
			},
			wantTotalAborts:  7, // 1 root + 6 rollbacks
			wantProtocolReqs: 49,
			wantWindow: MetricsSnapshot{
				Commits: 9, RootAborts: 1, ChkRollbacks: 6, Checkpoints: 27,
				ReadRequests: 40, CommitRequests: 9,
			},
		},
		{
			name: "window subtraction strips warmup",
			before: MetricsSnapshot{
				Commits: 100, RootAborts: 10, CTAborts: 3, ChkRollbacks: 2,
				ReadRequests: 500, CommitRequests: 100, LocalReads: 50,
			},
			after: MetricsSnapshot{
				Commits: 150, RootAborts: 18, CTAborts: 7, ChkRollbacks: 5,
				ReadRequests: 720, CommitRequests: 150, LocalReads: 80,
			},
			wantTotalAborts:  15, // (18-10) + (7-3) + (5-2)
			wantProtocolReqs: 270,
			wantWindow: MetricsSnapshot{
				Commits: 50, RootAborts: 8, CTAborts: 4, ChkRollbacks: 3,
				ReadRequests: 220, CommitRequests: 50, LocalReads: 30,
			},
		},
		{
			name: "local commits don't issue protocol requests",
			after: MetricsSnapshot{
				Commits: 20, LocalCommits: 20, LocalReads: 60,
			},
			wantTotalAborts:  0,
			wantProtocolReqs: 0,
			wantWindow: MetricsSnapshot{
				Commits: 20, LocalCommits: 20, LocalReads: 60,
			},
		},
		{
			name: "prefetch hits cost no protocol request",
			after: MetricsSnapshot{
				Commits: 10, LocalCommits: 10, ReadRequests: 10, PrefetchHits: 150,
			},
			wantTotalAborts:  0,
			wantProtocolReqs: 10,
			wantWindow: MetricsSnapshot{
				Commits: 10, LocalCommits: 10, ReadRequests: 10, PrefetchHits: 150,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.after.Sub(tc.before)
			if w != tc.wantWindow {
				t.Errorf("window = %+v, want %+v", w, tc.wantWindow)
			}
			if got := w.TotalAborts(); got != tc.wantTotalAborts {
				t.Errorf("TotalAborts() = %d, want %d", got, tc.wantTotalAborts)
			}
			if got := w.ProtocolRequests(); got != tc.wantProtocolReqs {
				t.Errorf("ProtocolRequests() = %d, want %d", got, tc.wantProtocolReqs)
			}
			// The identities commute with windowing: f(after) - f(before)
			// must equal f(after - before) for the additive aggregates.
			if tc.after.TotalAborts()-tc.before.TotalAborts() != w.TotalAborts() {
				t.Error("TotalAborts does not commute with Sub")
			}
			if tc.after.ProtocolRequests()-tc.before.ProtocolRequests() != w.ProtocolRequests() {
				t.Error("ProtocolRequests does not commute with Sub")
			}
		})
	}
}
