package harness

import (
	"context"
	"os"
	"strconv"
	"testing"

	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

func TestFaultTraceAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	// 3 iterations keep the default suite fast; FAULT_AUDIT_ITERS=100
	// reproduces the full recorded audit (the release gate for protocol
	// changes such as the batched delta-Rqv read path).
	iters := 3
	if v := os.Getenv("FAULT_AUDIT_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("FAULT_AUDIT_ITERS=%q: want a positive integer", v)
		}
		iters = n
	}
	s := QuickScale()
	table, err := faultTraceAudit(context.Background(), s, iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %v", table.Rows)
	}
	for _, row := range table.Rows {
		if row[5] != "0" {
			t.Fatalf("violations under %s: %v", row[0], row)
		}
		if row[2] == "0" {
			t.Fatalf("no traces audited under %s: %v", row[0], row)
		}
	}
}

// TestTraceRunVerified runs one traced hashmap cell per protocol with
// workload verification on. Tracing must not perturb the engine (same commit
// count), the spans must pass the protocol checker with one complete trace
// per transaction, every counted abort must have left exactly one abort span,
// and the heat counters must fill.
func TestTraceRunVerified(t *testing.T) {
	for _, mode := range figureModes {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry().WithSpans(obs.NewSpanBuffer(traceBufferSize))
			cfg := quickCfg("hashmap", mode)
			cfg.Obs = reg
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits != 30 {
				t.Fatalf("commits = %d, want 30", res.Commits)
			}
			spans := reg.Spans().Spans()
			check := obs.CheckTrace(spans)
			if err := check.Err(); err != nil {
				t.Fatal(err)
			}
			if check.Traces != 30 || check.Incomplete != 0 {
				t.Fatalf("want 30 complete traces: %+v", check)
			}
			// With nothing overwritten, the abort spans and the abort
			// counters are two views of the same decisions.
			if reg.Spans().Stats().Dropped == 0 {
				var spanned, counted uint64
				for _, s := range spans {
					if s.Kind == proto.SpanAbort {
						spanned++
					}
				}
				for _, n := range reg.Snapshot().Aborts {
					counted += n
				}
				if spanned != counted {
					t.Fatalf("%d abort spans, %d counted aborts", spanned, counted)
				}
			}
			if len(reg.HeatSnapshot().TopSlots(1)) == 0 {
				t.Fatal("no heat recorded")
			}
		})
	}
}
