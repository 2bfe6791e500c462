package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"qrdtm/internal/bench"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
)

// Scale sizes an experiment run. Quick keeps the whole suite in tens of
// seconds (CI, go test -bench); Full runs the sizes EXPERIMENTS.md reports.
type Scale struct {
	Clients int
	Txns    int
	Nodes   int
	Latency cluster.LatencyModel
	TxTime  time.Duration
	Seed    uint64
}

// FullScale is the scale used for the recorded results in EXPERIMENTS.md.
func FullScale() Scale {
	return Scale{
		Clients: 8, Txns: 60, Nodes: 13,
		Latency: cluster.UniformLatency{Base: time.Millisecond},
		Seed:    1,
	}
}

// QuickScale is a reduced scale for smoke tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Clients: 4, Txns: 15, Nodes: 13,
		Latency: cluster.UniformLatency{Base: time.Millisecond},
		Seed:    1,
	}
}

// Table is one experiment artifact (a figure series or table).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table for terminals.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t Table) CSV(w io.Writer) {
	fmt.Fprintf(w, "# %s,%s\n", t.ID, t.Title)
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// benchDefaults are the per-benchmark anchor parameters (moderate-to-high
// contention, matching where the paper's gaps are visible).
var benchDefaults = map[string]bench.Params{
	"bank":     {Objects: 16, Ops: 4, ReadRatio: 0.2},
	"hashmap":  {Objects: 48, Ops: 4, ReadRatio: 0.2},
	"slist":    {Objects: 48, Ops: 4, ReadRatio: 0.2},
	"rbtree":   {Objects: 48, Ops: 4, ReadRatio: 0.2},
	"vacation": {Objects: 12, Ops: 4, ReadRatio: 0.2},
	"bst":      {Objects: 48, Ops: 4, ReadRatio: 0.2},
}

// figureBenchmarks are the five benchmarks of Figures 5-8.
var figureBenchmarks = []string{"bank", "hashmap", "slist", "rbtree", "vacation"}

// figureModes are the three protocols every figure compares.
var figureModes = []core.Mode{core.Flat, core.Closed, core.Checkpoint}

func (s Scale) config(workload string, p bench.Params, mode core.Mode) Config {
	return Config{
		Workload:      workload,
		Params:        p,
		Mode:          mode,
		Nodes:         s.Nodes,
		Clients:       s.Clients,
		TxnsPerClient: s.Txns,
		Seed:          s.Seed,
		Latency:       s.Latency,
		TxTime:        s.TxTime,
	}
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f0(x float64) string { return fmt.Sprintf("%.0f", x) }
func pct(new, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", 100*(new-base)/base)
}

// Fig5 regenerates Figure 5 (a-e): throughput vs read-workload percentage
// for each benchmark under flat nesting, closed nesting and checkpointing.
func Fig5(ctx context.Context, s Scale) ([]Table, error) {
	ratios := []float64{0, 0.25, 0.5, 0.75, 1.0}
	var tables []Table
	for bi, name := range figureBenchmarks {
		t := Table{
			ID:     fmt.Sprintf("fig5%c", 'a'+bi),
			Title:  fmt.Sprintf("%s: throughput (txn/s) vs read workload %%", name),
			Header: []string{"read%", "flat", "closed", "checkpoint", "closed-vs-flat"},
		}
		for _, rr := range ratios {
			p := benchDefaults[name]
			p.ReadRatio = rr
			row := []string{f0(rr * 100)}
			var tput [3]float64
			for mi, mode := range figureModes {
				res, err := Run(ctx, s.config(name, p, mode))
				if err != nil {
					return nil, fmt.Errorf("fig5 %s %v: %w", name, mode, err)
				}
				tput[mi] = res.Throughput
				row = append(row, f1(res.Throughput))
			}
			row = append(row, pct(tput[1], tput[0]))
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig6 regenerates Figure 6 (a-e): throughput vs number of nested calls
// (operations per transaction).
func Fig6(ctx context.Context, s Scale) ([]Table, error) {
	var tables []Table
	for bi, name := range figureBenchmarks {
		t := Table{
			ID:     fmt.Sprintf("fig6%c", 'a'+bi),
			Title:  fmt.Sprintf("%s: throughput (txn/s) vs nested calls", name),
			Header: []string{"calls", "flat", "closed", "checkpoint", "closed-vs-flat"},
		}
		for ops := 1; ops <= 5; ops++ {
			p := benchDefaults[name]
			p.Ops = ops
			row := []string{fmt.Sprint(ops)}
			var tput [3]float64
			for mi, mode := range figureModes {
				res, err := Run(ctx, s.config(name, p, mode))
				if err != nil {
					return nil, fmt.Errorf("fig6 %s %v: %w", name, mode, err)
				}
				tput[mi] = res.Throughput
				row = append(row, f1(res.Throughput))
			}
			row = append(row, pct(tput[1], tput[0]))
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// fig7Objects are the per-benchmark object-count sweeps. For Hashmap and
// SList more elements mean longer chains/paths (contention up); for the
// rest more objects spread the accesses (contention down) — matching §VI-C.
var fig7Objects = map[string][]int{
	"bank":     {8, 16, 32, 64, 128},
	"hashmap":  {16, 32, 64, 128, 256},
	"slist":    {16, 32, 64, 128, 256},
	"rbtree":   {16, 32, 64, 128, 256},
	"vacation": {4, 8, 16, 32, 64},
}

// Fig7 regenerates Figure 7 (a-e): throughput vs number of objects.
func Fig7(ctx context.Context, s Scale) ([]Table, error) {
	var tables []Table
	for bi, name := range figureBenchmarks {
		t := Table{
			ID:     fmt.Sprintf("fig7%c", 'a'+bi),
			Title:  fmt.Sprintf("%s: throughput (txn/s) vs number of objects", name),
			Header: []string{"objects", "flat", "closed", "checkpoint", "closed-vs-flat"},
		}
		for _, objs := range fig7Objects[name] {
			p := benchDefaults[name]
			p.Objects = objs
			row := []string{fmt.Sprint(objs)}
			var tput [3]float64
			for mi, mode := range figureModes {
				res, err := Run(ctx, s.config(name, p, mode))
				if err != nil {
					return nil, fmt.Errorf("fig7 %s %v: %w", name, mode, err)
				}
				tput[mi] = res.Throughput
				row = append(row, f1(res.Throughput))
			}
			row = append(row, pct(tput[1], tput[0]))
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig8 regenerates Figure 8 (the table): percentage change in abort count
// and messages exchanged for QR-CN and QR-CHK relative to flat nesting.
func Fig8(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "fig8",
		Title:  "abort and message % change vs flat nesting",
		Header: []string{"bench", "QR-CN abort%", "QR-CHK abort%", "QR-CN msg%", "QR-CHK msg%"},
	}
	for _, name := range figureBenchmarks {
		p := benchDefaults[name]
		var aborts, msgs [3]float64
		for mi, mode := range figureModes {
			res, err := Run(ctx, s.config(name, p, mode))
			if err != nil {
				return nil, fmt.Errorf("fig8 %s %v: %w", name, mode, err)
			}
			aborts[mi] = float64(res.Client.TotalAborts())
			msgs[mi] = float64(res.Transport.Messages)
		}
		t.Rows = append(t.Rows, []string{
			name,
			pct(aborts[1], aborts[0]), pct(aborts[2], aborts[0]),
			pct(msgs[1], msgs[0]), pct(msgs[2], msgs[0]),
		})
	}
	return []Table{t}, nil
}

// Fig9 regenerates Figure 9 (a,b): QR-DTM vs HyFlow(TFA) vs DecentSTM on
// the Bank benchmark under 50% and 90% read workloads, sweeping clients.
func Fig9(ctx context.Context, s Scale) ([]Table, error) {
	var tables []Table
	for ti, rr := range []float64{0.5, 0.9} {
		t := Table{
			ID:     fmt.Sprintf("fig9%c", 'a'+ti),
			Title:  fmt.Sprintf("Bank %.0f%% read: throughput (txn/s) by system", rr*100),
			Header: []string{"clients", "QR-DTM", "HyFlow(TFA)", "DecentSTM"},
		}
		for _, clients := range []int{2, 4, 8, 16} {
			row := []string{fmt.Sprint(clients)}
			for _, sys := range []string{"qr", "tfa", "decent"} {
				res, err := RunCompare(ctx, CompareConfig{
					System:        sys,
					Nodes:         s.Nodes,
					Clients:       clients,
					TxnsPerClient: s.Txns,
					Accounts:      32,
					ReadRatio:     rr,
					Seed:          s.Seed,
					// The comparison prices message fan-out: unicast
					// systems (TFA) pay one transmit slot per request,
					// quorum/broadcast systems pay per leg — the paper's
					// 5 ms-unicast vs 30 ms-multicast testbed, scaled.
					Latency: cluster.ZeroLatency{},
					TxTime:  time.Millisecond,
				})
				if err != nil {
					return nil, fmt.Errorf("fig9 %s: %w", sys, err)
				}
				row = append(row, f1(res.Throughput))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// fig10FailureOrder computes which nodes to fail so that each failure hits
// the currently serving read replicas (root first, then down the tree) —
// the schedule that grows the read quorum by roughly one node per failure
// as in the paper's Figure 10.
func fig10FailureOrder() []proto.NodeID {
	return []proto.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
}

// Fig10 regenerates Figure 10: throughput under increasing node failures
// (28 nodes; read quorums grow and spread as nodes fail).
func Fig10(ctx context.Context, s Scale) ([]Table, error) {
	order := fig10FailureOrder()
	t := Table{
		ID:     "fig10",
		Title:  "throughput (txn/s) under increasing node failures (28 nodes)",
		Header: []string{"failures", "readQ", "Hashmap", "BST", "Vacation"},
	}
	for f := 0; f <= len(order); f++ {
		row := []string{fmt.Sprint(f)}
		rqSize := ""
		for _, name := range []string{"hashmap", "bst", "vacation"} {
			p := benchDefaults[name]
			cfg := s.config(name, p, core.Closed)
			cfg.Nodes = 28
			cfg.Clients = max(s.Clients, 8)
			cfg.FailNodes = order[:f]
			cfg.SpreadReads = true
			cfg.ServiceTime = 2 * time.Millisecond
			res, err := Run(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s f=%d: %w", name, f, err)
			}
			if rqSize == "" {
				rqSize = fmt.Sprint(res.ReadQuorumSize)
			}
			row = append(row, f1(res.Throughput))
		}
		t.Rows = append(t.Rows, append(row[:1], append([]string{rqSize}, row[1:]...)...))
	}
	return []Table{t}, nil
}

// ChkOverhead regenerates the §VI-C side experiment: the cost of checkpoint
// creation alone, measured contention-free (single client, no conflicts, so
// no rollbacks — the gap to flat is pure snapshot overhead).
func ChkOverhead(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "chkovh",
		Title:  "checkpoint-creation overhead, contention-free (1 client)",
		Header: []string{"bench", "flat txn/s", "chk txn/s", "overhead", "checkpoints/txn"},
	}
	for _, name := range []string{"bank", "hashmap", "vacation"} {
		p := benchDefaults[name]
		p.Ops = 8
		base := s.config(name, p, core.Flat)
		base.Clients = 1
		base.TxnsPerClient = s.Txns * 4
		flat, err := Run(ctx, base)
		if err != nil {
			return nil, err
		}
		chkCfg := base
		chkCfg.Mode = core.Checkpoint
		chk, err := Run(ctx, chkCfg)
		if err != nil {
			return nil, err
		}
		perTxn := float64(chk.Client.Checkpoints) / float64(chk.Commits)
		t.Rows = append(t.Rows, []string{
			name, f1(flat.Throughput), f1(chk.Throughput),
			pct(chk.Throughput, flat.Throughput), fmt.Sprintf("%.1f", perTxn),
		})
	}
	return []Table{t}, nil
}

// AblRqv is the Rqv ablation: flat QR with and without incremental
// read-quorum validation (design choice 1 in DESIGN.md).
func AblRqv(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "ablrqv",
		Title:  "flat nesting with vs without Rqv early abort",
		Header: []string{"bench", "flat txn/s", "flat+rqv txn/s", "delta", "flat aborts", "flat+rqv aborts"},
	}
	for _, name := range []string{"bank", "hashmap", "slist"} {
		p := benchDefaults[name]
		flat, err := Run(ctx, s.config(name, p, core.Flat))
		if err != nil {
			return nil, err
		}
		rqv, err := Run(ctx, s.config(name, p, core.FlatRqv))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name, f1(flat.Throughput), f1(rqv.Throughput),
			pct(rqv.Throughput, flat.Throughput),
			fmt.Sprint(flat.Client.TotalAborts()), fmt.Sprint(rqv.Client.TotalAborts()),
		})
	}
	return []Table{t}, nil
}

// AblChkGran sweeps the checkpoint granularity threshold (design choice 2):
// the paper attributes QR-CHK's loss to checkpoints that are too fine.
func AblChkGran(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "ablchk",
		Title:  "checkpoint granularity sweep (hashmap)",
		Header: []string{"every", "txn/s", "rollbacks/txn", "checkpoints/txn", "msgs/commit"},
	}
	p := benchDefaults["hashmap"]
	for _, every := range []int{1, 2, 4, 8, 16} {
		cfg := s.config("hashmap", p, core.Checkpoint)
		cfg.CheckpointEvery = every
		res, err := Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(every), f1(res.Throughput),
			fmt.Sprintf("%.2f", float64(res.Client.ChkRollbacks)/float64(res.Commits)),
			fmt.Sprintf("%.2f", float64(res.Client.Checkpoints)/float64(res.Commits)),
			f1(res.MsgsPerCommit()),
		})
	}
	return []Table{t}, nil
}

// AblLockWait sweeps the contention-manager policy for lock-only read
// denials (design choice 3-adjacent): waiting out a commit in flight versus
// the paper's immediate abort.
func AblLockWait(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "ablcm",
		Title:  "contention manager: lock-wait retries before aborting (closed nesting)",
		Header: []string{"bench", "waits", "txn/s", "aborts/txn", "lock-waits/txn"},
	}
	for _, name := range []string{"bank", "vacation"} {
		for _, waits := range []int{0, 1, 3} {
			cfg := s.config(name, benchDefaults[name], core.Closed)
			cfg.LockWaitRetries = waits
			res, err := Run(ctx, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprint(waits), f1(res.Throughput),
				fmt.Sprintf("%.2f", res.AbortRate()),
				fmt.Sprintf("%.2f", float64(res.Client.LockWaits)/float64(res.Commits)),
			})
		}
	}
	return []Table{t}, nil
}

// QuorumShape prints read/write quorum sizes for growing failure counts
// (tooling; underpins the Figure 10 discussion).
func QuorumShape(_ context.Context, s Scale) ([]Table, error) {
	nodes := 28
	if s.Nodes > nodes {
		nodes = s.Nodes
	}
	tree := quorum.NewTree(nodes)
	order := fig10FailureOrder()
	t := Table{
		ID:     "quorums",
		Title:  fmt.Sprintf("quorum sizes under failures (%d nodes)", nodes),
		Header: []string{"failures", "read quorum", "write quorum"},
	}
	down := map[proto.NodeID]bool{}
	alive := func(n proto.NodeID) bool { return !down[n] }
	for f := 0; f <= len(order); f++ {
		rq, errR := tree.ReadQuorum(alive)
		wq, errW := tree.WriteQuorum(alive)
		r, w := "unavailable", "unavailable"
		if errR == nil {
			r = fmt.Sprint(len(rq))
		}
		if errW == nil {
			w = fmt.Sprint(len(wq))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(f), r, w})
		if f < len(order) {
			down[order[f]] = true
		}
	}
	return []Table{t}, nil
}

// TransientFaults measures QR-CN/QR-CHK under message-level transient
// faults: requests are dropped with increasing probability while a
// RetryTransport masks the loss with bounded retries. The zero-rate row runs
// without the retry layer as the baseline. Drop rates above zero are only
// run *with* retries: under at-most-once delivery a dropped commit decision
// leaves prepare locks wedged on the write quorum forever, which is exactly
// the availability argument for the retry layer (see DESIGN.md §7).
func TransientFaults(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "faults",
		Title:  "throughput under transient request drops (retry-masked)",
		Header: []string{"mode", "drop%", "txn/s", "aborts/txn", "retries", "dropped", "refreshes"},
	}
	rates := []float64{0, 0.02, 0.10}
	for _, mode := range []core.Mode{core.Closed, core.Checkpoint} {
		for _, rate := range rates {
			cfg := s.config("hashmap", benchDefaults["hashmap"], mode)
			cfg.DropRate = rate
			if rate > 0 {
				cfg.RetryAttempts = 8
			}
			res, err := Run(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("faults %v rate=%.2f: %w", mode, rate, err)
			}
			t.Rows = append(t.Rows, []string{
				mode.String(), f0(rate * 100), f1(res.Throughput),
				fmt.Sprintf("%.2f", res.AbortRate()),
				fmt.Sprint(res.Transport.Retries),
				fmt.Sprint(res.Faults.Dropped),
				fmt.Sprint(res.Client.QuorumRefreshes),
			})
		}
	}
	// Trace-driven invariant audit: many small drop-injected cells, every
	// one's span trace replayed through the protocol checker. Full scale runs
	// the recorded 100 iterations; quick scale keeps CI time bounded.
	iters := faultTraceIters
	if s.Txns < FullScale().Txns {
		iters = 8
	}
	audit, err := faultTraceAudit(ctx, s, iters)
	if err != nil {
		return []Table{t, audit}, err
	}
	return []Table{t, audit}, nil
}

// traceBufferSize sizes a traced cell's span ring. Quick-scale cells emit a
// few thousand spans; 1<<16 keeps even full-scale contended cells from
// wrapping (a wrapped ring only loses old traces — the checker counts them
// Incomplete and skips them — but full retention gives it full coverage).
const traceBufferSize = 1 << 16

// faultTraceIters is the iteration count for the faults invariant audit at
// full scale; quick scale divides it down (see TransientFaults).
const faultTraceIters = 100

// faultTraceAudit repeatedly runs a small drop-injected cell with tracing on
// and invariant-checks every iteration's trace. Duplicate and dropped
// deliveries exercise the checker's tolerance for redelivery while still
// requiring version monotonicity and correct abort routing end to end.
func faultTraceAudit(ctx context.Context, s Scale, iters int) (Table, error) {
	t := Table{
		ID:     "faultchk",
		Title:  fmt.Sprintf("trace invariant audit under drops (%d iterations)", iters),
		Header: []string{"mode", "iterations", "traces", "spans", "incomplete", "violations"},
	}
	for _, mode := range []core.Mode{core.Closed, core.Checkpoint} {
		var traces, spans, incomplete, violations int
		var first *obs.Violation
		for i := 0; i < iters; i++ {
			reg := obs.NewRegistry().WithSpans(obs.NewSpanBuffer(traceBufferSize))
			cfg := s.config("hashmap", benchDefaults["hashmap"], mode)
			cfg.Clients, cfg.TxnsPerClient = 2, 3
			cfg.Seed = s.Seed + uint64(i)
			cfg.DropRate = 0.05
			cfg.RetryAttempts = 8
			cfg.Obs = reg
			if _, err := Run(ctx, cfg); err != nil {
				return t, fmt.Errorf("faultchk %v iter %d: %w", mode, i, err)
			}
			check := obs.CheckTrace(reg.Spans().Spans())
			traces += check.Traces
			spans += check.Spans
			incomplete += check.Incomplete
			violations += len(check.Violations)
			if first == nil && len(check.Violations) > 0 {
				v := check.Violations[0]
				first = &v
			}
		}
		t.Rows = append(t.Rows, []string{
			mode.String(), fmt.Sprint(iters), fmt.Sprint(traces), fmt.Sprint(spans),
			fmt.Sprint(incomplete), fmt.Sprint(violations),
		})
		if first != nil {
			return t, fmt.Errorf("faultchk %v: %d invariant violations, first: %s", mode, violations, first.String())
		}
	}
	return t, nil
}

// Experiment is a named experiment generator.
type Experiment func(context.Context, Scale) ([]Table, error)

// Experiments maps experiment ids (DESIGN.md's per-experiment index) to
// their generators.
var Experiments = map[string]Experiment{
	"fig5":    Fig5,
	"fig6":    Fig6,
	"fig7":    Fig7,
	"fig8":    Fig8,
	"fig9":    Fig9,
	"fig10":   Fig10,
	"chkovh":  ChkOverhead,
	"ablrqv":  AblRqv,
	"ablchk":  AblChkGran,
	"ablcm":   AblLockWait,
	"ablopen": OpenNesting,
	"ntfa":    NestingGain,
	"quorums": QuorumShape,
	"faults":  TransientFaults,
	"shard":   Shard,
	"load":    Load,
}

// ExperimentOrder lists experiment ids in presentation order.
var ExperimentOrder = []string{
	"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "chkovh", "ablrqv", "ablchk", "ablcm", "ablopen", "ntfa", "quorums", "faults", "shard", "load",
}
