package harness

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"qrdtm/internal/core"
	"qrdtm/internal/load"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/testcluster"
)

// CPUProfilePrefix / MemProfilePrefix, when set (qr-bench -cpuprofile /
// -memprofile), capture per-step pprof profiles over the measured window
// only — the profile starts at the first post-warmup arrival and stops when
// the offer ends, so warmup and drain never pollute the steady-state
// picture. Files are named <prefix>.step<N>.cpu.pprof / .mem.pprof.
var (
	CPUProfilePrefix string
	MemProfilePrefix string
)

// LoadAdminAddr, when set (qr-bench -admin), serves the load experiment's
// registry on an obs admin surface for the duration of the run, so qr-top
// can watch the generator gauges and cluster histograms live.
var LoadAdminAddr string

// Knee-detection thresholds: the saturation knee is the first ladder step
// where the system stops absorbing the offered load — completed rate falls
// below kneeCompletedFrac of offered, or intended-time p99 exceeds
// kneeP99Factor times the unloaded baseline (the ladder's first step).
const (
	kneeCompletedFrac = 0.95
	kneeP99Factor     = 5.0
)

// loadStep is one ladder step's measurements.
type loadStep struct {
	OfferedRate   float64
	CompletedRate float64
	CompletedFrac float64 // completed / offered
	P50Ms         float64 // intended-time latency
	P99Ms         float64
	P999Ms        float64
	ServiceP50Ms  float64 // closed-loop-style contrast
	ServiceP99Ms  float64
	Shed          uint64
	Queued        uint64
	Failed        uint64
	MaxLagMs      float64 // worst dispatcher schedule lag

	Aborts          uint64 // root aborts this step, every cause
	AuditViolations uint64
	AuditGapSpans   uint64
}

// loadRun is the whole ladder: the cluster shape, the calibrated capacity,
// every step, and the knee (Knee < 0 when no step crossed a threshold).
type loadRun struct {
	Nodes, Shards int
	Capacity      float64
	Steps         []loadStep
	Knee          int
	KneeReason    string
}

// newLoadStep turns one generator run into its ladder-step record (the
// cluster-side fields — aborts, audit deltas — are the caller's to fill).
func newLoadStep(st load.Stats) loadStep {
	rec := loadStep{
		OfferedRate:   st.OfferedRate,
		CompletedRate: st.CompletedRate,
		P50Ms:         float64(st.Latency.P50()) / 1e6,
		P99Ms:         float64(st.Latency.P99()) / 1e6,
		P999Ms:        float64(st.Latency.P999()) / 1e6,
		ServiceP50Ms:  float64(st.Service.P50()) / 1e6,
		ServiceP99Ms:  float64(st.Service.P99()) / 1e6,
		Shed:          st.Shed,
		Queued:        st.Queued,
		Failed:        st.Failed,
		MaxLagMs:      float64(st.MaxLag) / 1e6,
	}
	if st.Offered > 0 {
		rec.CompletedFrac = float64(st.Completed) / float64(st.Offered)
	}
	return rec
}

// DetectKnee returns the index of the first ladder step where the system is
// saturated — completed rate below kneeCompletedFrac of offered, or
// intended-time p99 beyond kneeP99Factor × the baseline p99 (the first
// step's, which must be the lowest rate) — plus the triggering reason.
// Returns -1 when no step crosses either threshold.
func DetectKnee(steps []loadStep) (int, string) {
	if len(steps) == 0 {
		return -1, ""
	}
	base := steps[0].P99Ms
	for i, st := range steps {
		if st.OfferedRate > 0 && st.CompletedRate < kneeCompletedFrac*st.OfferedRate {
			return i, fmt.Sprintf("completed %.0f%% of offered (< %.0f%%)",
				100*st.CompletedFrac, 100*kneeCompletedFrac)
		}
		if base > 0 && st.P99Ms > kneeP99Factor*base {
			return i, fmt.Sprintf("p99 %.1fms > %.0fx baseline %.1fms", st.P99Ms, kneeP99Factor, base)
		}
	}
	return -1, ""
}

// Load walks offered load across a rate ladder over the sharded 13-node
// localhost TCP cluster and records the first honest latency-under-load
// curves for it: open-loop Poisson arrivals, coordinated-omission-free
// intended-time latency (and service time for contrast), offered-vs-completed
// throughput, aborts, trace-audit deltas and saturation-knee detection.
//
// The run is anchored by a closed-loop calibration burst whose completion
// rate defines "capacity"; the ladder is a set of fractions of it spanning
// comfortably-below to past saturation. Every step's traffic runs under the
// streaming trace auditor, and the whole run must end balance-conserving.
func Load(ctx context.Context, s Scale) ([]Table, error) {
	r, err := runLoad(ctx, s)
	if err != nil {
		return nil, err
	}
	return []Table{r.table()}, nil
}

// table renders the ladder: one row per step, then the knee row if any.
func (r loadRun) table() Table {
	t := Table{
		ID:    "load",
		Title: fmt.Sprintf("open-loop rate ladder, %d-shard %d-node TCP cluster (capacity ~%.0f txn/s)", r.Shards, r.Nodes, r.Capacity),
		Header: []string{"offered/s", "completed/s", "done%", "p50 ms", "p99 ms", "p999 ms",
			"svc p50 ms", "svc p99 ms", "shed", "queued", "failed", "lag ms", "aborts", "audit"},
	}
	for _, st := range r.Steps {
		t.Rows = append(t.Rows, []string{
			f0(st.OfferedRate), f0(st.CompletedRate),
			fmt.Sprintf("%.0f%%", 100*st.CompletedFrac),
			fmt.Sprintf("%.2f", st.P50Ms), fmt.Sprintf("%.2f", st.P99Ms),
			fmt.Sprintf("%.2f", st.P999Ms),
			fmt.Sprintf("%.2f", st.ServiceP50Ms), fmt.Sprintf("%.2f", st.ServiceP99Ms),
			fmt.Sprint(st.Shed), fmt.Sprint(st.Queued), fmt.Sprint(st.Failed),
			fmt.Sprintf("%.1f", st.MaxLagMs), fmt.Sprint(st.Aborts),
			fmt.Sprintf("%dv/%dg", st.AuditViolations, st.AuditGapSpans),
		})
	}
	if r.Knee >= 0 {
		knee := []string{"knee", fmt.Sprintf("step %d", r.Knee), r.KneeReason}
		for len(knee) < len(t.Header) {
			knee = append(knee, "")
		}
		t.Rows = append(t.Rows, knee)
	}
	return t
}

// runLoad calibrates the cluster's capacity, walks the ladder, and fails on
// a trace violation below the knee or a final state that lost money.
func runLoad(ctx context.Context, s Scale) (loadRun, error) {
	quick := s.Txns < FullScale().Txns
	r := loadRun{Nodes: s.Nodes, Shards: 2}
	if r.Nodes >= 12 {
		r.Shards = 4
	}
	workers := 128
	stepDur, warmup := 5*time.Second, 1*time.Second
	calDur := 800 * time.Millisecond // per calibration burst
	fracs := []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0}
	if quick {
		workers = 32
		stepDur, warmup = 1200*time.Millisecond, 300*time.Millisecond
		calDur = 400 * time.Millisecond
		fracs = []float64{0.4, 2.0} // the CI smoke: one below, one past the knee
	}

	reg := obs.NewRegistry().WithSpans(obs.NewSpanBuffer(1 << 17))
	obs.RegisterRuntimeGauges(reg)
	auditor := obs.NewAuditor(reg, obs.AuditorConfig{})
	auditor.Start()
	defer auditor.Stop()

	m := proto.PartitionMap(nodesList(r.Nodes), r.Shards)
	c, err := testcluster.Start(testcluster.Options{
		Nodes: r.Nodes,
		Obs:   func(proto.NodeID) *obs.Registry { return reg },
		Map:   m,
	})
	if err != nil {
		return r, err
	}
	defer c.Close()
	const initBalance = 100
	buckets := refAccountBuckets(8)
	c.Load(accountCopies(buckets, initBalance))

	if LoadAdminAddr != "" {
		admin := obs.NewAdmin().WithRegistry(reg).WithAuditor(auditor).
			Source("obs", func() any { return reg.Snapshot() })
		addr, shutdown, err := admin.ListenAndServe(LoadAdminAddr)
		if err != nil {
			return r, err
		}
		defer func() { _ = shutdown() }()
		fmt.Fprintf(os.Stderr, "load: admin surface on http://%s (point qr-top at it)\n", addr)
	}

	// One client runtime per worker slot, reused across every ladder step so
	// connection setup never rides a measured window. Each worker also owns a
	// private RNG: the generator guarantees one in-flight call per slot.
	mapFn := func() (proto.ShardMap, error) { return m, nil }
	ids := core.NewIDGen()
	metrics := &core.Metrics{}
	rts := make([]*core.Runtime, workers)
	rngs := make([]*rand.Rand, workers)
	for w := 0; w < workers; w++ {
		rt, err := shardRuntime(c, proto.NodeID(w%r.Nodes), mapFn, ids, metrics, reg)
		if err != nil {
			return r, fmt.Errorf("load: worker %d runtime: %w", w, err)
		}
		rts[w] = rt
		rngs[w] = rand.New(rand.NewPCG(s.Seed, uint64(w)))
	}
	txn := func(ctx context.Context, w int) error {
		from, to := pickTransfer(rngs[w], buckets)
		return rts[w].Atomic(ctx, transferTxn(from, to))
	}

	// Capacity is the PEAK closed-loop completion rate over a concurrency
	// sweep, not the full-pool rate: this workload is contention-bound, so
	// throughput vs in-flight is non-monotone (a saturated pool collapses
	// into conflict-retry churn below its own peak). The ladder has to be
	// anchored to the peak, or its "past capacity" steps would sit inside
	// the sustainable region and never find the knee.
	for _, n := range []int{max(1, workers/8), workers / 4, workers / 2, workers} {
		rate, err := calibrateCapacity(ctx, n, calDur, txn)
		if err != nil {
			return r, fmt.Errorf("load: calibration at %d clients: %w", n, err)
		}
		r.Capacity = max(r.Capacity, rate)
	}

	prevAborts := reg.AbortCounts()
	prevAudit := auditor.Stats()
	for i, frac := range fracs {
		rate := max(frac*r.Capacity, 1)
		gen, err := load.New(load.Config{
			Rate:           rate,
			Schedule:       load.Poisson,
			Workers:        workers,
			QueueCap:       2 * workers,
			Duration:       stepDur,
			Warmup:         warmup,
			Seed:           s.Seed + uint64(i),
			Obs:            reg,
			OnMeasureStart: profileStart(i),
			OnOfferEnd:     profileStop(i),
		})
		if err != nil {
			return r, fmt.Errorf("load: step %d: %w", i, err)
		}
		st, err := gen.Run(ctx, func(ctx context.Context, w, _ int) error { return txn(ctx, w) })
		if err != nil {
			return r, fmt.Errorf("load: step %d (%.0f txn/s): %w", i, rate, err)
		}

		// Let the streaming auditor settle past its dangling-parent window
		// before differencing its cumulative counters into this step.
		time.Sleep(700 * time.Millisecond)
		auditor.Poll(false)
		audit := auditor.Stats()
		rec := newLoadStep(st)
		aborts := reg.AbortCounts()
		for cause, n := range aborts {
			rec.Aborts += n - prevAborts[cause]
		}
		prevAborts = aborts
		rec.AuditViolations = audit.Violations - prevAudit.Violations
		rec.AuditGapSpans = audit.GapSpans - prevAudit.GapSpans
		prevAudit = audit
		r.Steps = append(r.Steps, rec)
	}

	// Below the knee the cluster must be healthy: completed within 5% of
	// offered (the knee rule itself) and a clean trace audit. A violation
	// there is a protocol bug surfaced by load, not a saturation artifact.
	r.Knee, r.KneeReason = DetectKnee(r.Steps)
	below := len(r.Steps)
	if r.Knee >= 0 {
		below = r.Knee
	}
	for i, st := range r.Steps[:below] {
		if st.AuditViolations > 0 {
			return r, fmt.Errorf("load: step %d (below knee) has %d trace violations: %s",
				i, st.AuditViolations, prevAudit.LastViolation)
		}
	}
	return r, checkShardConservation(c, buckets, initBalance)
}

// calibrateCapacity measures the cluster's closed-loop completion rate with
// `workers` clients driving back-to-back transactions — the anchor the rate
// ladder is expressed against. The burst drains gracefully (a stop signal
// checked between transactions, never a mid-flight context cancel): an
// abandoned call would leave a replica's serve span dangling past its
// client-side parent and trip the trace auditor on phantom violations.
func calibrateCapacity(ctx context.Context, workers int, dur time.Duration, txn func(context.Context, int) error) (float64, error) {
	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	var total atomic.Uint64
	elapsed, err := runClients(workers, func(w int) error {
		return untilClosed(stop, func() error {
			if err := txn(ctx, w); err != nil {
				return err
			}
			total.Add(1)
			return nil
		})
	})
	if err != nil {
		return 0, err
	}
	if total.Load() == 0 {
		return 0, fmt.Errorf("no transactions completed in %v", dur)
	}
	return float64(total.Load()) / elapsed.Seconds(), nil
}

// cpuProfileFile holds the step's open CPU profile between the two hooks
// (the generator calls both from its scheduler goroutine, so no lock).
var cpuProfileFile *os.File

// profileStart returns the step's OnMeasureStart hook: it begins the CPU
// profile exactly at the warmup boundary (nil when -cpuprofile is unset, so
// unprofiled runs pay nothing).
func profileStart(step int) func() {
	if CPUProfilePrefix == "" {
		return nil
	}
	return func() {
		f, err := os.Create(fmt.Sprintf("%s.step%d.cpu.pprof", CPUProfilePrefix, step))
		if err != nil {
			fmt.Fprintf(os.Stderr, "load: cpu profile step %d: %v\n", step, err)
			return
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "load: cpu profile step %d: %v\n", step, err)
			f.Close()
			return
		}
		cpuProfileFile = f
	}
}

// profileStop returns the step's OnOfferEnd hook: it stops the CPU profile
// and snapshots the heap before the drain tail, so both profiles cover the
// measured window only.
func profileStop(step int) func() {
	if CPUProfilePrefix == "" && MemProfilePrefix == "" {
		return nil
	}
	return func() {
		if cpuProfileFile != nil {
			pprof.StopCPUProfile()
			cpuProfileFile.Close()
			cpuProfileFile = nil
		}
		if MemProfilePrefix != "" {
			f, err := os.Create(fmt.Sprintf("%s.step%d.mem.pprof", MemProfilePrefix, step))
			if err != nil {
				fmt.Fprintf(os.Stderr, "load: mem profile step %d: %v\n", step, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "load: mem profile step %d: %v\n", step, err)
			}
			f.Close()
		}
	}
}
