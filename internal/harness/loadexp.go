package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"qrdtm/internal/core"
	"qrdtm/internal/load"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/testcluster"
)

// BenchLoadPath is where the Load experiment writes its machine-readable
// output ("" disables the file; cmd/qr-bench exposes it as -load-out).
var BenchLoadPath = "BENCH_load.json"

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

// loadStep is one ladder step's record in BENCH_load.json.
type loadStep struct {
	Step          int     `json:"step"`
	TargetRate    float64 `json:"target_txn_per_sec"`
	OfferedRate   float64 `json:"offered_txn_per_sec"`
	CompletedRate float64 `json:"completed_txn_per_sec"`
	CompletedFrac float64 `json:"completed_frac"` // completed / offered
	P50Ms         float64 `json:"p50_ms"`         // intended-time latency
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	ServiceP50Ms  float64 `json:"service_p50_ms"` // closed-loop-style contrast
	ServiceP99Ms  float64 `json:"service_p99_ms"`
	Shed          uint64  `json:"shed"`
	Queued        uint64  `json:"queued"`
	Failed        uint64  `json:"failed"`
	MaxLagMs      float64 `json:"max_lag_ms"` // worst dispatcher schedule lag

	Aborts          map[string]uint64 `json:"aborts"` // per-cause deltas this step
	AuditViolations uint64            `json:"audit_violations"`
	AuditGapSpans   uint64            `json:"audit_gap_spans"`

	Timeline []load.Point `json:"timeline,omitempty"`
}

// kneeRecord marks the detected saturation knee in BENCH_load.json.
type kneeRecord struct {
	Step        int     `json:"step"`
	TargetRate  float64 `json:"target_txn_per_sec"`
	Reason      string  `json:"reason"`
	BaselineP99 float64 `json:"baseline_p99_ms"`
}

// loadBench is the whole BENCH_load.json document.
type loadBench struct {
	Nodes        int         `json:"nodes"`
	Shards       int         `json:"shards"`
	Workers      int         `json:"workers"`
	Schedule     string      `json:"schedule"`
	LocalityFrac float64     `json:"locality_fraction"`
	CapacityTxns float64     `json:"capacity_txn_per_sec"` // closed-loop calibration
	BaselineP99  float64     `json:"baseline_p99_ms"`
	Steps        []loadStep  `json:"steps"`
	Knee         *kneeRecord `json:"knee,omitempty"`
	Verified     bool        `json:"verified"` // conservation oracle after the run
}

// newLoadStep turns one generator run into its ladder-step record (the
// cluster-side fields — aborts, audit deltas — are the caller's to fill).
func newLoadStep(step int, target float64, st load.Stats) loadStep {
	rec := loadStep{
		Step:          step,
		TargetRate:    target,
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
		Timeline:      st.Timeline,
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
// intended-time latency, offered-vs-completed throughput, abort-cause mix
// and saturation-knee detection, all into BENCH_load.json.
//
// The run is anchored by a closed-loop calibration burst whose completion
// rate defines "capacity"; the ladder is a set of fractions of it spanning
// comfortably-below to past saturation. Every step's traffic runs under the
// streaming trace auditor, and the whole run must end balance-conserving.
func Load(ctx context.Context, s Scale) ([]Table, error) {
	quick := s.Txns < FullScale().Txns
	nodes := s.Nodes
	shards := 2
	if nodes >= 12 {
		shards = 4
	}
	workers := 128
	stepDur, warmup := 5*time.Second, 1*time.Second
	sampleEvery := 500 * time.Millisecond
	calDur := 800 * time.Millisecond // per calibration burst
	fracs := []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0}
	if quick {
		workers = 32
		stepDur, warmup = 1200*time.Millisecond, 300*time.Millisecond
		sampleEvery = 300 * time.Millisecond
		calDur = 400 * time.Millisecond
		fracs = []float64{0.4, 2.0} // the CI smoke: one below, one past the knee
	}

	reg := obs.NewRegistry().WithSpans(obs.NewSpanBuffer(1 << 17))
	obs.RegisterRuntimeGauges(reg)
	auditor := obs.NewAuditor(reg, obs.AuditorConfig{})
	auditor.Start()
	defer auditor.Stop()

	m := proto.PartitionMap(nodesList(nodes), shards)
	c, err := testcluster.Start(testcluster.Options{
		Nodes: nodes,
		Obs:   func(proto.NodeID) *obs.Registry { return reg },
		Map:   m,
	})
	if err != nil {
		return nil, err
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
			return nil, err
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
		rt, err := shardRuntime(c, proto.NodeID(w%nodes), mapFn, ids, metrics, reg)
		if err != nil {
			return nil, fmt.Errorf("load: worker %d runtime: %w", w, err)
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
	var capacity float64
	for _, n := range []int{max(1, workers/8), workers / 4, workers / 2, workers} {
		rate, err := calibrateCapacity(ctx, n, calDur, txn)
		if err != nil {
			return nil, fmt.Errorf("load: calibration at %d clients: %w", n, err)
		}
		if rate > capacity {
			capacity = rate
		}
	}

	doc := loadBench{
		Nodes: nodes, Shards: shards, Workers: workers,
		Schedule: load.Poisson.String(), LocalityFrac: shardLocality,
		CapacityTxns: capacity,
	}
	t := Table{
		ID:    "load",
		Title: fmt.Sprintf("open-loop rate ladder, %d-shard %d-node TCP cluster (capacity ~%.0f txn/s)", shards, nodes, capacity),
		Header: []string{"offered/s", "completed/s", "done%", "p50 ms", "p99 ms", "p999 ms",
			"shed", "queued", "lag ms", "aborts", "audit"},
	}

	prevAborts := reg.AbortCounts()
	prevAudit := auditor.Stats()
	for i, frac := range fracs {
		rate := frac * capacity
		if rate < 1 {
			rate = 1
		}
		gen, err := load.New(load.Config{
			Rate:           rate,
			Schedule:       load.Poisson,
			Workers:        workers,
			QueueCap:       2 * workers,
			Duration:       stepDur,
			Warmup:         warmup,
			Seed:           s.Seed + uint64(i),
			Obs:            reg,
			SampleEvery:    sampleEvery,
			OnMeasureStart: profileStart(i),
			OnOfferEnd:     profileStop(i),
		})
		if err != nil {
			return nil, fmt.Errorf("load: step %d: %w", i, err)
		}
		st, err := gen.Run(ctx, func(ctx context.Context, w, _ int) error { return txn(ctx, w) })
		if err != nil {
			return nil, fmt.Errorf("load: step %d (%.0f txn/s): %w", i, rate, err)
		}

		// Let the streaming auditor settle past its dangling-parent window
		// before differencing its cumulative counters into this step.
		time.Sleep(700 * time.Millisecond)
		auditor.Poll(false)
		audit := auditor.Stats()
		aborts := reg.AbortCounts()
		abortDelta := make(map[string]uint64, len(aborts))
		var abortTotal uint64
		for cause, n := range aborts {
			if d := n - prevAborts[cause]; d > 0 {
				abortDelta[cause] = d
				abortTotal += d
			}
		}
		prevAborts = aborts

		rec := newLoadStep(i, rate, st)
		rec.Aborts = abortDelta
		rec.AuditViolations = audit.Violations - prevAudit.Violations
		rec.AuditGapSpans = audit.GapSpans - prevAudit.GapSpans
		prevAudit = audit
		doc.Steps = append(doc.Steps, rec)
		t.Rows = append(t.Rows, []string{
			f0(rec.OfferedRate), f0(rec.CompletedRate),
			fmt.Sprintf("%.0f%%", 100*rec.CompletedFrac),
			fmt.Sprintf("%.2f", rec.P50Ms), fmt.Sprintf("%.2f", rec.P99Ms),
			fmt.Sprintf("%.2f", rec.P999Ms),
			fmt.Sprint(rec.Shed), fmt.Sprint(rec.Queued),
			fmt.Sprintf("%.1f", rec.MaxLagMs), fmt.Sprint(abortTotal),
			fmt.Sprintf("%dv/%dg", rec.AuditViolations, rec.AuditGapSpans),
		})
	}

	doc.BaselineP99 = doc.Steps[0].P99Ms
	if knee, reason := DetectKnee(doc.Steps); knee >= 0 {
		doc.Knee = &kneeRecord{
			Step: knee, TargetRate: doc.Steps[knee].TargetRate,
			Reason: reason, BaselineP99: doc.BaselineP99,
		}
		t.Rows = append(t.Rows, []string{
			"knee", fmt.Sprintf("step %d", knee), reason, "", "", "", "", "", "", "", "",
		})
	}

	// Below the knee the cluster must be healthy: completed within 5% of
	// offered (the knee rule itself) and a clean trace audit. A violation
	// there is a protocol bug surfaced by load, not a saturation artifact.
	below := len(doc.Steps)
	if doc.Knee != nil {
		below = doc.Knee.Step
	}
	for _, st := range doc.Steps[:below] {
		if st.AuditViolations > 0 {
			return nil, fmt.Errorf("load: step %d (below knee) has %d trace violations: %s",
				st.Step, st.AuditViolations, prevAudit.LastViolation)
		}
	}

	verified, err := checkShardConservation(c, buckets, initBalance)
	if err != nil {
		return nil, err
	}
	doc.Verified = verified

	if BenchLoadPath != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("load: encoding %s: %w", BenchLoadPath, err)
		}
		if err := os.WriteFile(BenchLoadPath, append(b, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("load: writing %s: %w", BenchLoadPath, err)
		}
	}
	return []Table{t}, nil
}

// calibrateCapacity measures the cluster's closed-loop completion rate with
// the full worker pool driving back-to-back transactions — the anchor the
// rate ladder is expressed against. The burst drains gracefully (a stop flag
// checked between transactions, never a mid-flight context cancel): an
// abandoned call would leave a replica's serve span dangling past its
// client-side parent and trip the trace auditor on phantom violations.
func calibrateCapacity(ctx context.Context, workers int, dur time.Duration, txn func(context.Context, int) error) (float64, error) {
	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	var wg sync.WaitGroup
	counts := make([]uint64, workers)
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ctx.Err() != nil {
					return
				}
				if err := txn(ctx, w); err != nil {
					errs[w] = err
					return
				}
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total uint64
	for _, n := range counts {
		total += n
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("no transactions completed in %v", dur)
	}
	return float64(total) / elapsed.Seconds(), nil
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
