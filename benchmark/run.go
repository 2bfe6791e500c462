package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/server"
	"qrdtm/internal/wal"
)

// sizing fixes how much one invocation measures. Load is sized to the box:
// everything runs in one process, so more closed-loop clients than cores
// measure backoff, not the data path.
type sizing struct {
	nodes   int
	clients int
	warmup  time.Duration
	windows int           // consecutive sub-windows of the measured window
	window  time.Duration // length of one sub-window
	setups  int           // fixture boots per untraced pass; setup_s is their median

	traced     time.Duration // measured length of the traced pass (same warm-up)
	extra      time.Duration // measured length of the obs-overhead and reference passes
	floorScale float64       // multiplies every floor's iteration count
	floorReps  int           // repetitions per floor; the floor is their median
}

func clientCount() int { return min(runtime.NumCPU(), 4) }

// fullSizing is the protocol of the standalone command: 3 s warm-up, a 30 s
// measured window in six 5 s sub-windows, an 8 s traced pass.
func fullSizing() sizing {
	return sizing{
		nodes: 13, clients: clientCount(),
		warmup: 3 * time.Second, windows: 6, window: 5 * time.Second, setups: 15,
		traced: 8 * time.Second, extra: 8 * time.Second,
		floorScale: 1, floorReps: 5,
	}
}

// quickSizing is the smoke: 5 nodes and a 1 s measured window. Its numbers
// mean nothing; it exists so tests can run every code path in seconds.
func quickSizing() sizing {
	return sizing{
		nodes: 5, clients: clientCount(),
		warmup: 200 * time.Millisecond, windows: 6, window: time.Second / 6, setups: 2,
		traced: 400 * time.Millisecond, extra: 400 * time.Millisecond,
		floorScale: 0.02, floorReps: 1,
	}
}

// driverSizing fits one workload into the --seconds the driver grants: the
// same six sub-windows, shrunk equally. A traced invocation splits the same
// budget between a short untraced pass (for the counters), the traced pass
// and the extra pass.
func driverSizing(seconds int, traced bool) sizing {
	s := fullSizing()
	total := time.Duration(seconds) * time.Second
	if !traced {
		s.warmup = min(s.warmup, total/8)
		s.window = total / time.Duration(s.windows)
		return s
	}
	s.warmup = total / 12 // paid by each of up to three passes
	s.setups = 1
	s.window = total * 3 / 10 / time.Duration(s.windows)
	s.traced = total * 4 / 10
	s.extra = total * 15 / 100
	s.floorScale, s.floorReps = 0.3, 3
	return s
}

// sample is one root transaction as its client saw it: call to return,
// retries and backoff included. In the traced pass it doubles as the txn span.
type sample struct {
	start, end time.Duration // since the pass epoch
	failed     bool
}

// counters is one reading of everything the layers export, taken at a
// sub-window boundary.
type counters struct {
	at   time.Duration // since the pass epoch
	cpu  time.Duration // process user+system time
	core core.MetricsSnapshot
	net  cluster.Stats
	srv  server.MetricsSnapshot // summed over replicas

	mallocs, allocBytes, gcPauseNs, heapInuse uint64
	goroutines                                int

	walFsyncs, walAppends int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters(epoch time.Time, f *fixture, m *core.Metrics) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		at: time.Since(epoch), cpu: processCPU(),
		core: m.Snapshot(), net: f.transport.Stats(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs, heapInuse: ms.HeapInuse,
		goroutines: runtime.NumGoroutine(),
	}
	for _, r := range f.replicas {
		s := r.Metrics().Snapshot()
		c.srv.Reads += s.Reads
		c.srv.ReadAborts += s.ReadAborts
		c.srv.Prepares += s.Prepares
		c.srv.PrepareRejects += s.PrepareRejects
	}
	for _, w := range f.wals {
		c.walFsyncs += w.Fsyncs()
		c.walAppends += int64(w.LastIndex())
	}
	return c
}

// recordSize is the log's bytes-per-record ratio over the measured window.
type recordSize struct{ bytes, records int64 }

// sampleRecordSize measures how many bytes one appended record adds to the
// log. WAL.LogBytes is the live size and shrinks when a snapshot compacts
// sealed segments, so differencing it over a whole window is wrong; instead
// the logs are polled, and only intervals in which a log's snapshot floor did
// not move (and its size did not shrink) are counted.
func sampleRecordSize(wals []*wal.WAL, done <-chan struct{}) recordSize {
	type reading struct {
		floor, last uint64
		bytes       int64
	}
	read := func(w *wal.WAL) reading { return reading{w.Floor(), w.LastIndex(), w.LogBytes()} }
	prev := make([]reading, len(wals))
	for i, w := range wals {
		prev[i] = read(w)
	}
	var out recordSize
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return out
		case <-tick.C:
		}
		for i, w := range wals {
			cur := read(w)
			if cur.floor == prev[i].floor && cur.bytes >= prev[i].bytes {
				out.bytes += cur.bytes - prev[i].bytes
				out.records += int64(cur.last - prev[i].last)
			}
			prev[i] = cur
		}
	}
}

// passKind selects what is attached to the cluster for one pass.
type passKind int

const (
	passUntraced passKind = iota // nothing attached: the end-to-end numbers
	passTraced                   // the benchmark's span wrappers + a bare obs.Registry
	passObs                      // obs.Registry + default SpanBuffer on every layer, no wrappers
)

// obsSpanRing is the span-ring size cmd/qr-node deploys by default.
const obsSpanRing = 1 << 16

type passOpts struct {
	def     workloadDef
	seed    uint64
	kind    passKind
	durable bool // not def.durable: the reference pass runs bank_wal's transactions on in-memory replicas
	nodes   int
	clients int
	warmup  time.Duration
	windows int
	window  time.Duration
	setups  int
	tmpRoot string
}

// passResult is everything one pass observed; summaries are computed from it
// after the cluster is gone.
type passResult struct {
	opts    passOpts
	setups  []time.Duration
	bounds  []counters // windows+1 readings
	samples [][]sample // per client, whole pass (warm-up included)
	final   core.MetricsSnapshot

	verifyErr   error
	unaccounted int
	reg         *obs.Registry
	trace       *tracer
	quorumR     int
	quorumW     int
	walRecord   recordSize
}

// release frees the traced pass's span buffers.
func (r *passResult) release() {
	if r.trace != nil {
		r.trace.free()
		r.trace = nil
	}
}

// runPass boots a cluster, drives it closed-loop through warm-up and the
// measured sub-windows, stops the clients, checks the outputs and tears the
// cluster down.
func runPass(o passOpts) (*passResult, error) {
	res := &passResult{opts: o}
	inst := o.def.make(o.seed, o.clients)
	objects := inst.objects()

	co := clusterOpts{nodes: o.nodes, durable: o.durable, tmpRoot: o.tmpRoot}
	switch o.kind {
	case passTraced:
		res.reg = obs.NewRegistry()
		var err error
		if res.trace, err = newTracer(o.clients, o.nodes, o.warmup+time.Duration(o.windows)*o.window); err != nil {
			return nil, err
		}
		co.reg, co.wrap = res.reg, res.trace.wrapHandler
	case passObs:
		res.reg = obs.NewRegistry().WithSpans(obs.NewSpanBuffer(obsSpanRing))
		co.reg, co.replicaObs = res.reg, true
	}

	// Set-up is repeated so setup_s is a median, not one cold boot.
	var f *fixture
	for i := 0; i < o.setups; i++ {
		if f != nil {
			if err := f.Close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		// Each boot starts from a collected heap: otherwise where the previous
		// boot's garbage left the collector decides half of a 3 ms set-up.
		runtime.GC()
		var err error
		if f, err = bootCluster(co, objects); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, f.setup)
	}
	defer f.Close()

	metrics := &core.Metrics{}
	ids := core.NewIDGen()
	runtimes := make([]*core.Runtime, o.clients)
	for c := range runtimes {
		var tr cluster.Transport = f.transport
		if res.trace != nil {
			tr = res.trace.wrapTransport(c, f.transport)
		}
		rt, err := core.NewRuntime(core.Config{
			Node:      proto.NodeID(c % o.nodes),
			Transport: tr,
			Quorums:   core.TreeQuorums{Tree: f.tree},
			Mode:      core.Closed,
			IDs:       ids,
			Metrics:   metrics,
			Obs:       res.reg,
		})
		if err != nil {
			return nil, err
		}
		runtimes[c] = rt
	}
	res.quorumR, res.quorumW = runtimes[0].ReadQuorumSize(), runtimes[0].WriteQuorumSize()

	measured := time.Duration(o.windows) * o.window
	ctx, cancel := context.WithTimeout(context.Background(), o.warmup+measured+30*time.Second)
	defer cancel()
	var stop atomic.Bool
	var wg sync.WaitGroup
	res.samples = make([][]sample, o.clients)
	epoch := time.Now()
	if res.trace != nil {
		res.trace.epoch = epoch
	}
	for c := range runtimes {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			txn := inst.client(c)
			out := make([]sample, 0, 1<<16)
			for !stop.Load() {
				if res.trace != nil {
					res.trace.clients[c].seq.Store(int32(len(out)))
				}
				start := time.Since(epoch)
				err := txn(ctx, runtimes[c])
				out = append(out, sample{start: start, end: time.Since(epoch), failed: err != nil})
			}
			res.samples[c] = out
		}(c)
	}

	time.Sleep(o.warmup)
	res.bounds = append(res.bounds, readCounters(epoch, f, metrics))
	walDone := make(chan struct{})
	walSize := make(chan recordSize, 1)
	if o.durable {
		go func() { walSize <- sampleRecordSize(f.wals, walDone) }()
	}
	for i := 1; i <= o.windows; i++ {
		time.Sleep(time.Until(epoch.Add(o.warmup + time.Duration(i)*o.window)))
		if i == o.windows && o.durable {
			close(walDone)
			res.walRecord = <-walSize
		}
		res.bounds = append(res.bounds, readCounters(epoch, f, metrics))
	}
	stop.Store(true)
	wg.Wait()
	res.final = metrics.Snapshot()

	res.unaccounted, res.verifyErr = inst.verify(f)
	var committed uint64
	for _, ss := range res.samples {
		for _, s := range ss {
			if !s.failed {
				committed++
			}
		}
	}
	if res.verifyErr == nil && committed != res.final.Commits {
		res.verifyErr = fmt.Errorf("clients counted %d commits, core.Metrics.Commits = %d", committed, res.final.Commits)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	return res, nil
}

// metricValue is one reported number. N is the sample count behind it;
// Windows are the per-sub-window values a median was taken over and Spread
// their interquartile range as a share of that median.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Spread  float64   `json:"spread,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

type metricSet map[string]metricValue

func (ms metricSet) put(name string, v float64, n int) {
	ms[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

// putWindows stores the median of per-sub-window values with their spread.
func (ms metricSet) putWindows(name string, vals []float64, n int) {
	q1, med, q3 := quartiles(vals)
	spread := 0.0
	if med != 0 {
		spread = (q3 - q1) / med
	}
	ms[name] = metricValue{Value: med, Unit: unitOf(name), N: n, Spread: spread, Windows: vals}
}

// quartiles cuts vals the way Python's statistics.quantiles(vals, n=4) does
// (the driver's spread is the same quantity across runs).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts what the clients did inside the measured window.
type tally struct {
	attempted, failed, commits int
}

func (r *passResult) window() (from, to time.Duration) {
	return r.bounds[0].at, r.bounds[len(r.bounds)-1].at
}

func (r *passResult) tally() tally {
	var t tally
	from, to := r.window()
	for _, ss := range r.samples {
		for _, s := range ss {
			if s.end < from || s.end >= to {
				continue
			}
			t.attempted++
			if s.failed {
				t.failed++
			} else {
				t.commits++
			}
		}
	}
	return t
}

// endToEnd computes the six end-to-end metrics: every windowed one is the
// median over the sub-windows of that sub-window's value.
func (r *passResult) endToEnd() metricSet {
	ms := metricSet{}
	nw := len(r.bounds) - 1
	lat := make([][]time.Duration, nw)
	for _, ss := range r.samples {
		w := 0
		for _, s := range ss { // a client's samples are in end order
			for w < nw && s.end >= r.bounds[w+1].at {
				w++
			}
			if w == nw {
				break
			}
			if s.end >= r.bounds[0].at && !s.failed {
				lat[w] = append(lat[w], s.end-s.start)
			}
		}
	}
	var rate, p50, p99, cpu []float64
	total := 0
	for w := 0; w < nw; w++ {
		slices.Sort(lat[w])
		n := len(lat[w])
		total += n
		rate = append(rate, float64(n)/(r.bounds[w+1].at-r.bounds[w].at).Seconds())
		p50 = append(p50, msec(quantile(lat[w], 0.50)))
		p99 = append(p99, msec(quantile(lat[w], 0.99)))
		cpu = append(cpu, msec(r.bounds[w+1].cpu-r.bounds[w].cpu)/float64(max(n, 1)))
	}
	ms.putWindows("txn_per_s", rate, total)
	ms.putWindows("p50_ms", p50, total)
	ms.putWindows("p99_ms", p99, total)
	ms.putWindows("cpu_ms_per_txn", cpu, total)

	t := r.tally()
	ms.put(failedFrac, float64(t.failed+r.unaccounted)/float64(max(t.attempted, 1)), t.attempted)

	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	ms.putWindows("setup_s", setups, len(setups))
	return ms
}

// untracedLayers computes the U metrics: counters differenced over the whole
// measured window, per committed transaction.
func (r *passResult) untracedLayers() metricSet {
	ms := metricSet{}
	a, b := r.bounds[0], r.bounds[len(r.bounds)-1]
	cm := b.core.Sub(a.core)
	commits := float64(max(cm.Commits, 1))
	n := int(cm.Commits)
	per := func(name string, v uint64) { ms.put(name, float64(v)/commits, n) }
	frac := func(name string, num, den uint64) { ms.put(name, float64(num)/float64(max(den, 1)), int(den)) }

	per("core.attempts_per_commit", cm.Commits+cm.RootAborts)
	per("core.root_aborts_per_commit", cm.RootAborts)
	per("core.ct_aborts_per_commit", cm.CTAborts)
	frac("core.local_commit_frac", cm.LocalCommits, cm.Commits)
	per("core.read_rounds_per_txn", cm.ReadRequests)
	per("core.local_reads_per_txn", cm.LocalReads)
	per("core.commit_rounds_per_txn", cm.CommitRequests)

	per("cluster.msgs_per_txn", b.net.Messages-a.net.Messages)
	per("cluster.bytes_per_txn", b.net.Bytes-a.net.Bytes)
	per("cluster.calls_per_txn", b.net.Calls-a.net.Calls)
	frac("cluster.failed_call_frac", b.net.Failed-a.net.Failed, b.net.Calls-a.net.Calls)

	frac("server.prepare_reject_frac", b.srv.PrepareRejects-a.srv.PrepareRejects, b.srv.Prepares-a.srv.Prepares)
	frac("server.read_abort_frac", b.srv.ReadAborts-a.srv.ReadAborts, b.srv.Reads-a.srv.Reads)

	if r.opts.durable {
		per("wal.fsyncs_per_txn", uint64(b.walFsyncs-a.walFsyncs))
		appends := float64(b.walAppends - a.walAppends)
		ms.put("wal.log_bytes_per_txn", appends/commits*float64(r.walRecord.bytes)/float64(max(r.walRecord.records, 1)), int(r.walRecord.records))
		frac("wal.appends_per_fsync", uint64(b.walAppends-a.walAppends), uint64(b.walFsyncs-a.walFsyncs))
	}

	per("runtime.allocs_per_txn", b.mallocs-a.mallocs)
	per("runtime.alloc_bytes_per_txn", b.allocBytes-a.allocBytes)
	ms.put("runtime.gc_pause_ms_per_s", float64(b.gcPauseNs-a.gcPauseNs)/1e6/(b.at-a.at).Seconds(), n)
	ms.put("runtime.heap_inuse_mb", float64(b.heapInuse)/(1<<20), 1)
	ms.put("runtime.goroutines", float64(b.goroutines), 1)

	ms.put("quorum.read_quorum_size", float64(r.quorumR), 1)
	ms.put("quorum.write_quorum_size", float64(r.quorumW), 1)
	return ms
}

// throughputOver is committed transactions per second over the first d of
// the measured window. The pass-to-pass overhead ratios compare equal spans
// after equal warm-ups, because a workload's rate may drift as a run ages.
func (r *passResult) throughputOver(d time.Duration) float64 {
	from := r.bounds[0].at
	commits := 0
	for _, ss := range r.samples {
		for _, s := range ss {
			if !s.failed && s.end >= from && s.end < from+d {
				commits++
			}
		}
	}
	return float64(commits) / d.Seconds()
}

// overhead is the share of throughput pass r lost against the untraced pass
// u, over the span both measured.
func (r *passResult) overhead(u *passResult) float64 {
	d := min(r.opts.window*time.Duration(r.opts.windows), u.opts.window*time.Duration(u.opts.windows))
	return 1 - r.throughputOver(d)/u.throughputOver(d)
}
