package load

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"qrdtm/internal/obs"
)

// TestCoordinatedOmission is the deterministic proof that the generator's
// latency accounting is coordinated-omission-free. A single worker stalls on
// the first arrival; the schedule keeps offering at 1 kHz regardless, so
// every arrival that lands during the stall queues up and is charged its
// full wait from its *intended* time. A closed-loop-style measurement (the
// Service histogram: completion minus execution start) sees only fast
// transactions — that divergence is exactly what coordinated omission hides.
func TestCoordinatedOmission(t *testing.T) {
	const (
		stall    = 300 * time.Millisecond
		arrivals = 300
	)
	g, err := New(Config{
		Rate:     1000,
		Schedule: Uniform,
		Workers:  1,
		QueueCap: arrivals, // no shedding: every delayed arrival must be charged
		Arrivals: arrivals,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	st, err := g.Run(context.Background(), func(ctx context.Context, _, _ int) error {
		once.Do(func() { time.Sleep(stall) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 0 {
		t.Fatalf("expected no shedding with QueueCap=%d, got %d", arrivals, st.Shed)
	}
	if st.Completed != arrivals {
		t.Fatalf("completed %d of %d", st.Completed, arrivals)
	}
	// The stall delays every queued arrival: arrival i intended at i ms but
	// served after the 300ms stall waits ~(300-i) ms. The honest intended-time
	// distribution must show a large median; 50ms is a very generous floor
	// (the true p50 is ~150ms).
	if p50 := time.Duration(st.Latency.P50()); p50 < 50*time.Millisecond {
		t.Errorf("intended-time p50 = %v; the stall is invisible — coordinated omission", p50)
	}
	// The closed-loop-style view must NOT see the stall in its median: only
	// one of 300 executions was slow.
	if sp50 := time.Duration(st.Service.P50()); sp50 > 10*time.Millisecond {
		t.Errorf("service-time p50 = %v; expected near-zero (only 1/300 executions stalled)", sp50)
	}
	// Queued accounting: the stall saturates the single worker, so a large
	// fraction of arrivals must have found it busy.
	if st.Queued < arrivals/2 {
		t.Errorf("queued = %d; expected most of %d arrivals to find the worker busy", st.Queued, arrivals)
	}
	if st.MaxLag > 50*time.Millisecond {
		t.Errorf("dispatcher lag %v; the schedule itself slipped", st.MaxLag)
	}
}

// TestShedAccounting: with a slow single worker and a tiny queue, a fast
// schedule must shed the overflow — keeping the dispatcher on schedule and
// the accounting leak-free (completed + failed + shed = offered).
func TestShedAccounting(t *testing.T) {
	const arrivals = 200
	g, err := New(Config{
		Rate:     2000,
		Schedule: Uniform,
		Workers:  1,
		QueueCap: 1,
		Arrivals: arrivals,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run(context.Background(), func(ctx context.Context, _, _ int) error {
		time.Sleep(20 * time.Millisecond) // service time ≫ 0.5ms inter-arrival gap
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered != arrivals {
		t.Fatalf("offered %d, want %d", st.Offered, arrivals)
	}
	// Capacity is 50 txn/s against 2000 offered: the overwhelming majority
	// must be shed, not queued behind the stuck pool.
	if st.Shed < arrivals/2 {
		t.Errorf("shed = %d of %d; a saturated pool must shed, not absorb", st.Shed, arrivals)
	}
	if st.Completed+st.Failed+st.Shed != st.Offered {
		t.Errorf("accounting leak: completed %d + failed %d + shed %d != offered %d",
			st.Completed, st.Failed, st.Shed, st.Offered)
	}
	// Shedding must keep the dispatcher on schedule (the 200 arrivals span
	// 100ms; generous bound for CI noise).
	if st.MaxLag > 50*time.Millisecond {
		t.Errorf("dispatcher lag %v; shedding failed to protect the schedule", st.MaxLag)
	}
}

func TestFailedCounted(t *testing.T) {
	g, err := New(Config{Rate: 5000, Workers: 4, QueueCap: 100, Arrivals: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	st, err := g.Run(context.Background(), func(ctx context.Context, _, arrival int) error {
		if arrival%2 == 0 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 50 || st.Completed != 50 {
		t.Fatalf("completed/failed = %d/%d, want 50/50", st.Completed, st.Failed)
	}
	// Failed arrivals must not contaminate the latency distribution.
	if st.Latency.Count != 50 {
		t.Fatalf("latency samples = %d, want 50", st.Latency.Count)
	}
}

func TestWarmupExcluded(t *testing.T) {
	g, err := New(Config{
		Rate:     2000,
		Schedule: Uniform,
		Workers:  8,
		Duration: 100 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	var mu sync.Mutex
	st, err := g.Run(context.Background(), func(ctx context.Context, _, _ int) error {
		mu.Lock()
		total++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~400 arrivals executed, but only the ~200 intended after warmup count.
	if int(st.Offered) >= total {
		t.Errorf("measured offered %d should exclude warmup (total executed %d)", st.Offered, total)
	}
	if st.Offered == 0 {
		t.Error("no measured arrivals after warmup")
	}
}

// TestScheduleDeterministic: the arrival timeline is a pure function of
// (schedule, rate, seed).
func TestScheduleDeterministic(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		gs := newGapSource(Poisson, 500, rand.New(rand.NewPCG(seed, 0x10AD)))
		out := make([]time.Duration, 64)
		for i := range out {
			out[i] = gs.next()
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestUniformGaps(t *testing.T) {
	gs := newGapSource(Uniform, 1000, rand.New(rand.NewPCG(1, 2)))
	for i := 0; i < 8; i++ {
		if g := gs.next(); g != time.Millisecond {
			t.Fatalf("uniform gap = %v, want 1ms", g)
		}
	}
}

func TestPoissonMeanGap(t *testing.T) {
	gs := newGapSource(Poisson, 1000, rand.New(rand.NewPCG(9, 9)))
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += gs.next()
	}
	mean := sum / n
	if mean < 900*time.Microsecond || mean > 1100*time.Microsecond {
		t.Fatalf("poisson mean gap = %v, want ~1ms", mean)
	}
}

// TestGaugesOnlyWhenAttached: a registry never handed to a generator scrapes
// byte-identically before and after a load run elsewhere; a registry that IS
// attached exposes the load_* gauge family.
func TestGaugesOnlyWhenAttached(t *testing.T) {
	untouched := obs.NewRegistry()
	var before bytes.Buffer
	if err := obs.WriteProm(&before, untouched.Snapshot()); err != nil {
		t.Fatal(err)
	}

	attached := obs.NewRegistry()
	g, err := New(Config{Rate: 5000, Workers: 4, QueueCap: 50, Arrivals: 50, Seed: 1, Obs: attached})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(context.Background(), func(ctx context.Context, _, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}

	var after bytes.Buffer
	if err := obs.WriteProm(&after, untouched.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("untouched registry's scrape changed after a load run elsewhere")
	}
	if bytes.Contains(before.Bytes(), []byte("load_")) {
		t.Error("untouched registry exposes load gauges")
	}

	var loaded bytes.Buffer
	if err := obs.WriteProm(&loaded, attached.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`qrdtm_gauge{name="load_offered_total"}`,
		`qrdtm_gauge{name="load_completed_total"}`,
		`qrdtm_gauge{name="load_shed_total"}`,
		`qrdtm_gauge{name="load_inflight"}`,
		`qrdtm_gauge{name="load_queue_depth"}`,
		`qrdtm_gauge{name="load_lag_us"}`,
		`qrdtm_gauge{name="load_target_rate"}`,
	} {
		if !bytes.Contains(loaded.Bytes(), []byte(want)) {
			t.Errorf("attached registry scrape missing %s", want)
		}
	}
	snap := attached.Snapshot()
	if snap.Gauges["load_offered_total"] != 50 {
		t.Errorf("load_offered_total gauge = %d, want 50", snap.Gauges["load_offered_total"])
	}
	if snap.Gauges["load_completed_total"] != 50 {
		t.Errorf("load_completed_total gauge = %d, want 50", snap.Gauges["load_completed_total"])
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Rate: 0, Arrivals: 10}, // no rate
		{Rate: 100},             // neither arrivals nor duration
		{Rate: 100, Arrivals: 10, Duration: time.Second}, // both
		{Rate: 100, Arrivals: 10, Workers: -1},           // bad workers
		{Rate: 100, Arrivals: 10, QueueCap: -1},          // bad queue
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, c)
		}
	}
}

func TestRunOnce(t *testing.T) {
	g, err := New(Config{Rate: 10000, Workers: 2, Arrivals: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(context.Background(), func(ctx context.Context, _, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(context.Background(), func(ctx context.Context, _, _ int) error { return nil }); err == nil {
		t.Fatal("second Run succeeded; generator must be single-use")
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g, err := New(Config{Rate: 100, Workers: 2, Duration: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, cancel)
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = g.Run(ctx, func(ctx context.Context, _, _ int) error { return nil })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after context cancel")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", runErr)
	}
}

// TestMeasureHooks: OnMeasureStart fires once at the warmup boundary,
// OnOfferEnd once after the last dispatch — bracketing the measured window
// for profilers.
func TestMeasureHooks(t *testing.T) {
	var started, ended int
	g, err := New(Config{
		Rate:           2000,
		Schedule:       Uniform,
		Workers:        4,
		Duration:       60 * time.Millisecond,
		Warmup:         30 * time.Millisecond,
		Seed:           1,
		OnMeasureStart: func() { started++ },
		OnOfferEnd:     func() { ended++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(context.Background(), func(ctx context.Context, _, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if started != 1 || ended != 1 {
		t.Fatalf("hooks fired start=%d end=%d, want 1/1", started, ended)
	}
}
