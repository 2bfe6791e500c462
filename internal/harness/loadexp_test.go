package harness

import (
	"context"
	"testing"
	"time"

	"qrdtm/internal/load"
)

func TestDetectKnee(t *testing.T) {
	mk := func(offered, completed, p99 float64) loadStep {
		s := loadStep{OfferedRate: offered, CompletedRate: completed, P99Ms: p99}
		if offered > 0 {
			s.CompletedFrac = completed / offered
		}
		return s
	}
	t.Run("completed-shortfall", func(t *testing.T) {
		steps := []loadStep{
			mk(100, 100, 2), mk(200, 199, 2.5), mk(400, 300, 3),
		}
		knee, reason := DetectKnee(steps)
		if knee != 2 {
			t.Fatalf("knee = %d (%s), want 2", knee, reason)
		}
	})
	t.Run("p99-blowup", func(t *testing.T) {
		steps := []loadStep{
			mk(100, 100, 2), mk(200, 200, 4), mk(400, 399, 30),
		}
		knee, reason := DetectKnee(steps)
		if knee != 2 {
			t.Fatalf("knee = %d (%s), want 2 (p99 30ms > 5x baseline 2ms)", knee, reason)
		}
	})
	t.Run("no-knee", func(t *testing.T) {
		steps := []loadStep{mk(100, 100, 2), mk(200, 198, 3)}
		if knee, reason := DetectKnee(steps); knee != -1 {
			t.Fatalf("knee = %d (%s), want -1", knee, reason)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if knee, _ := DetectKnee(nil); knee != -1 {
			t.Fatalf("knee on empty ladder = %d, want -1", knee)
		}
	})
	t.Run("zero-baseline-no-div", func(t *testing.T) {
		// A zero baseline p99 (degenerate fast step) must not make every
		// later step a knee via 0-times-anything comparisons.
		steps := []loadStep{mk(100, 100, 0), mk(200, 200, 1)}
		if knee, reason := DetectKnee(steps); knee != -1 {
			t.Fatalf("knee = %d (%s), want -1", knee, reason)
		}
	})
}

// TestKneeOnStubService is where the ladder's rate claims live: a knee
// exists, it is not the baseline step, and the past-capacity step sheds or
// queues. The generator drives a stub transaction of fixed service time, so
// capacity is workers / service by construction (2 / 10 ms = 200 txn/s) and
// neither claim depends on how fast this machine or a live cluster is: a
// sleep never returns early, so at 2x at most 100 arrivals finish in the
// 500 ms offer plus the 34 the pool and queue hold, of 200 offered; at 0.4x
// an arrival is shed only after a stall of about 0.4 s.
func TestKneeOnStubService(t *testing.T) {
	const (
		workers  = 2
		service  = 10 * time.Millisecond
		capacity = float64(workers) / 0.010
	)
	var steps []loadStep
	for i, frac := range []float64{0.4, 2.0} {
		gen, err := load.New(load.Config{
			Rate:     frac * capacity,
			Schedule: load.Uniform,
			Workers:  workers,
			QueueCap: 32,
			Duration: 500 * time.Millisecond,
			Seed:     uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := gen.Run(context.Background(), func(context.Context, int, int) error {
			time.Sleep(service)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, newLoadStep(st))
	}
	if last := steps[1]; last.Shed == 0 && last.Queued == 0 {
		t.Errorf("past-capacity step shows no queueing or shedding: %+v", last)
	}
	if knee, reason := DetectKnee(steps); knee != 1 {
		t.Errorf("knee = %d (%s), want step 1; steps %+v", knee, reason, steps)
	}
}

// TestLoadExperiment runs the open-loop ladder at the CI smoke scale (2
// steps, 13 nodes, real localhost TCP) and pins its structural contract: the
// cluster shape, per-step rates and ordered intended-time quantiles, one
// table row per step plus the knee row when there is a knee, and a clean
// audit below whatever knee the run found (runLoad itself fails on a final
// state that lost money). It asserts no rate: where the knee falls on a live
// cluster depends on the machine and on what else runs beside the test
// (TestKneeOnStubService owns those claims, make bench-load-quick shows the
// live knee).
func TestLoadExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	r, err := runLoad(context.Background(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 13 || r.Shards != 4 {
		t.Fatalf("cluster shape %d nodes / %d shards, want 13/4", r.Nodes, r.Shards)
	}
	if len(r.Steps) != 2 {
		t.Fatalf("quick ladder has %d steps, want 2", len(r.Steps))
	}
	if r.Capacity <= 0 {
		t.Fatalf("calibrated capacity %v", r.Capacity)
	}
	for i, st := range r.Steps {
		if st.OfferedRate <= 0 || st.CompletedRate <= 0 {
			t.Fatalf("step %d rates: %+v", i, st)
		}
		if st.P50Ms <= 0 || st.P99Ms < st.P50Ms || st.P999Ms < st.P99Ms {
			t.Fatalf("step %d quantiles not ordered: %+v", i, st)
		}
		if st.ServiceP50Ms <= 0 || st.ServiceP99Ms < st.ServiceP50Ms {
			t.Fatalf("step %d service quantiles not ordered: %+v", i, st)
		}
	}
	below := len(r.Steps)
	if r.Knee >= 0 {
		below = r.Knee
	}
	for i, st := range r.Steps[:below] {
		if st.AuditViolations != 0 {
			t.Errorf("step %d (below the knee) has %d trace violations", i, st.AuditViolations)
		}
	}

	tab := r.table()
	rows := len(r.Steps)
	if r.Knee >= 0 {
		rows++
	}
	if len(tab.Rows) != rows {
		t.Fatalf("load table has %d rows, want %d (knee %d): %+v", len(tab.Rows), rows, r.Knee, tab.Rows)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %q has %d cells, header %d", row, len(row), len(tab.Header))
		}
	}
}
