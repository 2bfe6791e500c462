// Package load is the open-loop transaction generator: it offers work at a
// target arrival rate decided by a schedule (Poisson or uniform), not by the
// completion rate of the system under test. A closed-loop harness (N clients
// in lockstep) self-throttles under contention — when the system slows down,
// so does the offered load, and queueing collapse is structurally invisible.
// The open-loop generator keeps offering on schedule, and its latency
// accounting is coordinated-omission-free:
//
//   - Every arrival has an *intended* time fixed by the schedule before the
//     run starts. Latency is measured from the intended time to completion,
//     so a transaction that sat behind a saturated client pool is charged
//     its full queueing delay instead of silently shifting the schedule.
//   - Arrivals that find the worker pool busy wait in a bounded queue
//     (counted as queued); arrivals that find the queue full are counted as
//     shed, never silently dropped or allowed to delay later arrivals.
//   - The dispatcher's own lag behind the schedule (OS scheduling, a stalled
//     generator) is tracked and exported, so a run whose generator could not
//     keep up is visibly invalid rather than quietly under-offered.
//
// The generator is workload-agnostic: it drives any TxnFunc, and the harness
// layers the cluster, the workload and the measurement windows on top.
package load

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/obs"
)

// TxnFunc executes one offered transaction. worker identifies the pool slot
// (stable per goroutine, for per-worker state like runtimes and RNGs);
// arrival is the schedule index of the arrival being served. A non-nil error
// counts the arrival as failed rather than completed.
type TxnFunc func(ctx context.Context, worker, arrival int) error

// Config parameterizes one open-loop run.
type Config struct {
	// Rate is the target offered load in transactions per second (> 0).
	Rate float64
	// Schedule is the inter-arrival law (default Poisson).
	Schedule Schedule
	// Workers is the client-pool size: the maximum number of transactions
	// in flight at once (default 16).
	Workers int
	// QueueCap bounds how many arrivals may wait for a free worker; an
	// arrival that finds the queue full is shed (default 2×Workers).
	QueueCap int
	// Arrivals is the total number of arrivals to offer. Exactly one of
	// Arrivals and Duration must be set.
	Arrivals int
	// Duration offers arrivals until the schedule passes this length.
	Duration time.Duration
	// Warmup excludes arrivals intended before this offset from the stats
	// (they still run — the system is warm, the numbers are not).
	Warmup time.Duration
	// Seed makes the schedule deterministic (default 1).
	Seed uint64
	// Obs, when set, registers the generator gauges (load_offered_total,
	// load_completed_total, load_shed_total, load_inflight,
	// load_queue_depth, load_lag_us, load_target_rate) on the registry, so
	// they ride /metrics and the Prometheus exposition. A node that never
	// runs a generator never sees them — its scrape stays byte-identical.
	Obs *obs.Registry
	// OnMeasureStart runs on the scheduler goroutine just before the first
	// measured (post-warmup) arrival is dispatched. Hook for starting a
	// steady-state profile.
	OnMeasureStart func()
	// OnOfferEnd runs on the scheduler goroutine after the last arrival has
	// been dispatched, before the drain wait. Hook for stopping a profile
	// without charging it the drain tail.
	OnOfferEnd func()
}

func (c Config) withDefaults() (Config, error) {
	if c.Rate <= 0 {
		return c, fmt.Errorf("load: Rate must be > 0, got %v", c.Rate)
	}
	if (c.Arrivals > 0) == (c.Duration > 0) {
		return c, errors.New("load: exactly one of Arrivals and Duration must be set")
	}
	if c.Workers == 0 {
		c.Workers = 16
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("load: Workers must be >= 1, got %d", c.Workers)
	}
	if c.QueueCap == 0 {
		c.QueueCap = 2 * c.Workers
	}
	if c.QueueCap < 0 {
		return c, fmt.Errorf("load: QueueCap must be >= 0, got %d", c.QueueCap)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// Stats is one run's measured-window accounting.
type Stats struct {
	// Offered counts measured arrivals (completed + failed + shed, once the
	// drain finishes). Completed/Failed are fn outcomes; Shed never ran.
	Offered   uint64 `json:"offered"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Shed      uint64 `json:"shed"`
	// Queued counts measured arrivals that found every worker busy and had
	// to wait — below saturation it stays near zero.
	Queued uint64 `json:"queued"`

	// Elapsed is the measured offer window (schedule end minus warmup end);
	// the rates below are taken over it.
	Elapsed       time.Duration `json:"elapsed_ns"`
	OfferedRate   float64       `json:"offered_txn_per_sec"`
	CompletedRate float64       `json:"completed_txn_per_sec"`

	// MaxLag is the worst dispatcher lag behind the intended schedule. A
	// lag comparable to the latencies under study means the generator
	// itself could not keep up and the run is suspect.
	MaxLag time.Duration `json:"max_lag_ns"`

	// Latency is the coordinated-omission-free distribution: completion
	// time minus *intended* arrival time, queueing included.
	Latency obs.HistSnapshot `json:"-"`
	// Service is the closed-loop-style distribution for contrast:
	// completion time minus execution start. Under saturation Latency
	// diverges from Service — that gap is what coordinated omission hides.
	Service obs.HistSnapshot `json:"-"`
}

// Generator runs one open-loop schedule against a TxnFunc.
type Generator struct {
	cfg Config

	offered   atomic.Uint64 // all arrivals dispatched or shed, warmup included
	completed atomic.Uint64
	shed      atomic.Uint64

	mOffered   atomic.Uint64 // measured-window counters
	mCompleted atomic.Uint64
	mFailed    atomic.Uint64
	mShed      atomic.Uint64
	mQueued    atomic.Uint64

	inflight atomic.Int64
	depth    atomic.Int64 // arrivals waiting in the queue
	lagUS    atomic.Int64 // current dispatcher lag, microseconds
	maxLag   atomic.Int64 // nanoseconds

	latency obs.Histogram
	service obs.Histogram

	ran atomic.Bool
}

// New validates cfg and returns a generator. When cfg.Obs is set the
// generator gauges are registered immediately, so an admin surface attached
// to the registry shows the run from its first scrape.
func New(cfg Config) (*Generator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg}
	if r := cfg.Obs; r != nil {
		r.RegisterGauge("load_target_rate", func() int64 { return int64(cfg.Rate + 0.5) })
		r.RegisterGauge("load_offered_total", func() int64 { return int64(g.offered.Load()) })
		r.RegisterGauge("load_completed_total", func() int64 { return int64(g.completed.Load()) })
		r.RegisterGauge("load_shed_total", func() int64 { return int64(g.shed.Load()) })
		r.RegisterGauge("load_inflight", g.inflight.Load)
		r.RegisterGauge("load_queue_depth", g.depth.Load)
		r.RegisterGauge("load_lag_us", g.lagUS.Load)
	}
	return g, nil
}

// item is one dispatched arrival.
type item struct {
	arrival  int
	intended time.Time
	queued   bool
	measured bool
}

// Run offers the schedule against fn and blocks until every dispatched
// arrival has drained. It can be called once per generator. The context
// cancels the offer early; already-dispatched arrivals still drain (fn sees
// the cancelled context and is expected to bail out fast).
func (g *Generator) Run(ctx context.Context, fn TxnFunc) (Stats, error) {
	if g.ran.Swap(true) {
		return Stats{}, errors.New("load: generator already ran")
	}
	cfg := g.cfg
	work := make(chan item, cfg.QueueCap)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := range work {
				g.depth.Add(-1)
				g.inflight.Add(1)
				execStart := time.Now()
				err := fn(ctx, w, it.arrival)
				end := time.Now()
				g.inflight.Add(-1)
				if err == nil {
					g.completed.Add(1)
				}
				if it.measured {
					if err != nil {
						g.mFailed.Add(1)
					} else {
						g.mCompleted.Add(1)
						g.latency.Record(int64(end.Sub(it.intended)))
						g.service.Record(int64(end.Sub(execStart)))
					}
					if it.queued {
						g.mQueued.Add(1)
					}
				}
			}
		}(w)
	}

	start := time.Now()
	measureStart := start.Add(cfg.Warmup)
	gaps := newGapSource(cfg.Schedule, cfg.Rate, rand.New(rand.NewPCG(cfg.Seed, 0x10AD)))

	var offerErr error
	measuring := false
	next := start
	var offerEnd time.Time
	for i := 0; ; i++ {
		next = next.Add(gaps.next())
		if cfg.Arrivals > 0 && i >= cfg.Arrivals {
			offerEnd = next
			break
		}
		if cfg.Duration > 0 && next.Sub(start) > cfg.Warmup+cfg.Duration {
			offerEnd = next
			break
		}
		if err := ctx.Err(); err != nil {
			offerErr = err
			offerEnd = time.Now()
			break
		}
		// Sleep until the intended time; if we are already past it the
		// arrival dispatches immediately and the lag is recorded — the
		// schedule itself never slips.
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(next)
		if lag < 0 {
			lag = 0
		}
		g.lagUS.Store(lag.Microseconds())
		if prev := g.maxLag.Load(); int64(lag) > prev {
			g.maxLag.Store(int64(lag))
		}
		measured := !next.Before(measureStart)
		if measured && !measuring {
			measuring = true
			if cfg.OnMeasureStart != nil {
				cfg.OnMeasureStart()
			}
		}
		it := item{arrival: i, intended: next, measured: measured,
			queued: g.inflight.Load() >= int64(cfg.Workers)}
		g.offered.Add(1)
		if measured {
			g.mOffered.Add(1)
		}
		select {
		case work <- it:
			g.depth.Add(1)
		default:
			g.shed.Add(1)
			if measured {
				g.mShed.Add(1)
			}
		}
	}
	if cfg.OnOfferEnd != nil {
		cfg.OnOfferEnd()
	}
	close(work)
	wg.Wait()
	g.lagUS.Store(0)

	elapsed := offerEnd.Sub(measureStart)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	st := Stats{
		Offered:   g.mOffered.Load(),
		Completed: g.mCompleted.Load(),
		Failed:    g.mFailed.Load(),
		Shed:      g.mShed.Load(),
		Queued:    g.mQueued.Load(),
		Elapsed:   elapsed,
		MaxLag:    time.Duration(g.maxLag.Load()),
		Latency:   g.latency.Snapshot(),
		Service:   g.service.Snapshot(),
	}
	st.OfferedRate = float64(st.Offered) / elapsed.Seconds()
	st.CompletedRate = float64(st.Completed) / elapsed.Seconds()
	return st, offerErr
}
