// Package harness runs the paper's experiments: it wires a simulated
// QR-DTM cluster, drives a benchmark workload with concurrent clients,
// measures throughput / abort rates / message counts, and regenerates every
// table and figure of the evaluation section (see experiments.go).
package harness

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"qrdtm"
	"qrdtm/internal/bench"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

// Config describes one experiment cell: a workload at given parameters on a
// given cluster under one protocol mode.
type Config struct {
	Workload string
	Params   bench.Params
	Mode     core.Mode

	Nodes         int
	Clients       int
	TxnsPerClient int
	Seed          uint64

	// Latency models per-message propagation delay (default 1 ms one-way,
	// i.e. one platform sleep quantum; the paper's testbed pays ~30 ms per
	// remote request regardless of quorum size, so a uniform per-request
	// cost is the faithful model for the mode-comparison figures).
	Latency cluster.LatencyModel
	// TxTime serializes each sender's outgoing messages (default off).
	// The cross-system comparison (Figure 9) turns it on to price quorum
	// multicasts against TFA's unicasts.
	TxTime time.Duration
	// ServiceTime serializes per-replica request processing (Figure 10).
	ServiceTime time.Duration
	// CheckpointEvery is the QR-CHK footprint threshold (default 2).
	CheckpointEvery int
	// CheckpointCost is the simulated state-capture cost per checkpoint
	// (default: one TxTime quantum, calibrated to the paper's ~6%
	// contention-free overhead; set negative to disable).
	CheckpointCost time.Duration
	// LockWaitRetries is the read-denial contention-manager policy
	// (default 0: abort immediately, as in the paper).
	LockWaitRetries int
	// SpreadReads gives each client node a failure-adaptive spread read
	// quorum (qrdtm.ClusterConfig.SpreadQuorums) instead of the canonical one.
	SpreadReads bool
	// FailNodes crash before the run starts (Figure 10).
	FailNodes []proto.NodeID
	// DropRate injects message-level request drops with the given
	// probability via a FaultTransport decorator (default 0 = off). Unlike
	// FailNodes' crash-stop model, drops are transient: the replica is
	// healthy, the message is lost.
	DropRate float64
	// RetryAttempts, when > 0, interposes a RetryTransport with that total
	// per-call attempt budget, masking transient faults before they surface
	// to the engine as ErrNodeDown. With drops injected and no retry layer,
	// a lost commit decision can leave prepare locks wedged forever, so
	// DropRate > 0 should be paired with RetryAttempts > 0.
	RetryAttempts int
	// Verify runs the workload's invariant checks after the run.
	Verify bool
	// Obs, when set, collects latency histograms and abort-cause counters
	// from every runtime of the cell; Result.Obs carries the snapshot. The
	// nil default records nothing (zero hot-path cost), keeping the figure
	// experiments' measurement windows identical to pre-observability runs.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 13
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.TxnsPerClient == 0 {
		c.TxnsPerClient = 50
	}
	if c.Latency == nil {
		c.Latency = cluster.UniformLatency{Base: time.Millisecond}
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 4
	}
	if c.CheckpointCost == 0 {
		c.CheckpointCost = time.Millisecond
	} else if c.CheckpointCost < 0 {
		c.CheckpointCost = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is one experiment cell's measurements.
type Result struct {
	Workload string
	Mode     core.Mode
	Params   bench.Params

	Elapsed    time.Duration
	Commits    uint64
	Throughput float64 // committed transactions per second

	Client    core.MetricsSnapshot
	Transport cluster.Stats
	Faults    cluster.FaultCounts
	// Obs is the observability snapshot of the cell (zero when Config.Obs
	// was nil; Sites/Aborts maps are always fully keyed).
	Obs obs.Snapshot

	ReadQuorumSize  int
	WriteQuorumSize int
}

// AbortRate is total aborts (full + partial) per committed transaction.
func (r Result) AbortRate() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Client.TotalAborts()) / float64(r.Commits)
}

// MsgsPerCommit is transport messages per committed transaction.
func (r Result) MsgsPerCommit() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Transport.Messages) / float64(r.Commits)
}

// Run executes one experiment cell.
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Check(); err != nil {
		return Result{}, err
	}
	w, err := bench.New(cfg.Workload)
	if err != nil {
		return Result{}, err
	}

	// Optional robustness/fault-injection layering around the simulated
	// network: FaultTransport drops requests, RetryTransport masks them.
	var faultT *cluster.FaultTransport
	var retryT *cluster.RetryTransport
	var wrap func(cluster.Transport) cluster.Transport
	if cfg.DropRate > 0 || cfg.RetryAttempts > 0 {
		wrap = func(inner cluster.Transport) cluster.Transport {
			tr := inner
			if cfg.DropRate > 0 {
				faultT = cluster.NewFaultTransport(tr, cfg.Seed)
				faultT.SetDropRate(cfg.DropRate)
				tr = faultT
			}
			if cfg.RetryAttempts > 0 {
				retryT = cluster.NewRetryTransport(tr, cluster.RetryPolicy{
					MaxAttempts: cfg.RetryAttempts,
					BackoffBase: time.Millisecond,
					BackoffMax:  8 * time.Millisecond,
				})
				tr = retryT
			}
			return tr
		}
	}

	c, err := simCluster(qrdtm.ClusterConfig{
		Nodes:           cfg.Nodes,
		Mode:            cfg.Mode,
		Latency:         cfg.Latency,
		TxTime:          cfg.TxTime,
		ServiceTime:     cfg.ServiceTime,
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointCost:  cfg.CheckpointCost,
		LockWaitRetries: cfg.LockWaitRetries,
		SpreadQuorums:   cfg.SpreadReads,
		WrapTransport:   wrap,
		Obs:             cfg.Obs,
	})
	if err != nil {
		return Result{}, err
	}
	c.Load(w.Setup(cfg.Params, rand.New(rand.NewPCG(cfg.Seed, 0xBEEF))))
	for _, n := range cfg.FailNodes {
		if err := c.Fail(n); err != nil {
			return Result{}, fmt.Errorf("failing %v: %w", n, err)
		}
	}

	// Build runtimes up front so construction cost stays out of the
	// measurement window, then reset the counters.
	runtimes := make([]*core.Runtime, cfg.Clients)
	for i := range runtimes {
		runtimes[i] = c.Runtime(proto.NodeID(i % cfg.Nodes))
	}
	c.Transport.ResetStats()
	before := c.Metrics().Snapshot()
	var retryBefore cluster.Stats
	if retryT != nil {
		retryBefore = retryT.Stats()
	}
	var faultsBefore cluster.FaultCounts
	if faultT != nil {
		faultsBefore = faultT.Faults()
	}

	elapsed, err := runClients(cfg.Clients, func(cl int) error {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(cl)+1))
		for i := 0; i < cfg.TxnsPerClient; i++ {
			st, steps := w.NewTxn(rng, cfg.Params)
			if _, err := runtimes[cl].AtomicSteps(ctx, st, steps); err != nil {
				return fmt.Errorf("client %d txn %d: %w", cl, i, err)
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	snap := c.Metrics().Snapshot().Sub(before)
	res := Result{
		Workload:        w.Name(),
		Mode:            cfg.Mode,
		Params:          cfg.Params,
		Elapsed:         elapsed,
		Commits:         snap.Commits,
		Throughput:      float64(snap.Commits) / elapsed.Seconds(),
		Client:          snap,
		Transport:       c.Transport.Stats(),
		ReadQuorumSize:  runtimes[0].ReadQuorumSize(),
		WriteQuorumSize: runtimes[0].WriteQuorumSize(),
		Obs:             cfg.Obs.Snapshot(),
	}
	if retryT != nil {
		rs := retryT.Stats()
		res.Transport.Retries = rs.Retries - retryBefore.Retries
		res.Transport.Timeouts = rs.Timeouts - retryBefore.Timeouts
	}
	if faultT != nil {
		fs := faultT.Faults()
		res.Faults = cluster.FaultCounts{
			Dropped:     fs.Dropped - faultsBefore.Dropped,
			Duplicated:  fs.Duplicated - faultsBefore.Duplicated,
			Partitioned: fs.Partitioned - faultsBefore.Partitioned,
		}
	}

	if cfg.Verify {
		oracle := func(id proto.ObjectID) (proto.Value, bool) {
			cp, err := c.ReadCommitted(ctx, id)
			if err != nil || cp.Val == nil {
				return nil, false
			}
			return cp.Val, true
		}
		if err := w.Verify(cfg.Params, oracle); err != nil {
			return res, fmt.Errorf("post-run verification: %w", err)
		}
	}
	return res, nil
}

// simCluster builds a simulated cluster with the harness's retry policy:
// retries are effectively unbounded, so every cell runs its transactions to
// completion, and full-abort retries back off at commit-window scale,
// mirroring the paper's testbed where a retry inherently costs a ~30 ms
// request round before it can conflict again.
func simCluster(cfg qrdtm.ClusterConfig) (*qrdtm.Cluster, error) {
	cfg.MaxRetries = 1_000_000
	cfg.BackoffBase = 2 * time.Millisecond
	cfg.BackoffMax = 16 * time.Millisecond
	return qrdtm.NewCluster(cfg)
}

// runClients runs n closed-loop clients, client cl on its own goroutine
// running body(cl) — a fixed count of transactions, or transactions until a
// stop signal — and returns the time until the last one returned and the
// first client's error.
func runClients(n int, body func(cl int) error) (time.Duration, error) {
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for cl := 0; cl < n; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			errs[cl] = body(cl)
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return elapsed, err
		}
	}
	return elapsed, nil
}

// untilClosed is a stop-based client body: it runs txn back to back until
// stop closes. Stop is checked only between transactions, never mid-flight,
// so a client drains gracefully instead of abandoning a call.
func untilClosed(stop <-chan struct{}, txn func() error) error {
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		if err := txn(); err != nil {
			return err
		}
	}
}
