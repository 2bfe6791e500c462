package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and every per-layer metric with the
// layer it belongs to, where its number comes from and which end-to-end
// metric it is expected to move on which workload. BENCHMARK.json at the
// repository root lists the same names (bench_test.go keeps the two in step).

// workloadSpec is a workload's entry in BENCHMARK.json: its name and why it
// exists. workloads.go holds the table.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Where a per-layer number comes from.
const (
	srcUntraced = "U" // counters differenced over the untraced measured window
	srcTraced   = "T" // the traced pass (spans recorded by the benchmark's wrappers, obs sites)
	srcFloor    = "F" // the floor pass: direct calls into one layer, no cluster
	srcStatic   = "S" // a property of the configuration
	srcDerived  = "D" // a ratio of two passes
)

// metricSpec describes one metric. Bound is set on end-to-end metrics only:
// the share of the parent's median by which the metric may worsen.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  string
	Source string
	Moves  string // which end-to-end metric it should move, on which workload
}

// The end-to-end metrics BENCHMARK.json registers, measured on the untraced
// pass. failed_frac is the sixth end-to-end number of every result document,
// but it is 0 on a healthy run and the driver's contract wants metrics that
// are never 0: it reaches the driver as the result line's failed/attempted.
var endToEndSpecs = []metricSpec{
	{Name: "txn_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_txn", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const failedFrac = "failed_frac"

const (
	movesCoreAborts = "attempts/aborts/backoff -> p99_ms, txn_per_s on bank_hot (nothing on bank_tcp)"
	movesCoreReads  = "read rounds and local-commit share -> p50_ms, txn_per_s on hashmap_cn_read"
	movesCoreSelf   = "self time -> cpu_ms_per_txn on every workload"
	movesClusterRTT = "RTTs and net share -> p50_ms, txn_per_s on bank_tcp (about nothing on bank_wal)"
	movesClusterVol = "msgs/bytes -> cpu_ms_per_txn on bank_tcp and hashmap_cn_read"
	movesProto      = "-> cpu_ms_per_txn on bank_tcp"
	movesProtoGob   = "-> cpu_ms_per_txn, p50_ms on hashmap_cn_read only"
	movesServe      = "serve times -> p50_ms on bank_wal (they contain the fsync wait), cpu_ms_per_txn on bank_tcp"
	movesReject     = "reject/abort fractions -> txn_per_s on bank_hot"
	movesStore      = "floors under server.serve_*; -> cpu_ms_per_txn only, and only when serve time is near the floor"
	movesWAL        = "-> p50_ms, txn_per_s on bank_wal; zero by construction elsewhere"
	movesQuorum     = "sizes -> cluster.msgs_per_txn -> cpu_ms_per_txn on every TCP workload"
	movesLoad       = "gates promotion of an open-loop workload; moves nothing today"
	movesObs        = "the <=5% instrumentation budget -> txn_per_s on bank_tcp"
	movesRuntime    = "allocs/GC -> p99_ms, cpu_ms_per_txn on bank_tcp"
	movesBench      = "cost of the benchmark's own spans; moves nothing in the program"
)

func layerMetrics(layer, source, unit, better, moves string, names ...string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{Name: layer + "." + n, Unit: unit, Better: better, Layer: layer, Source: source, Moves: moves}
	}
	return out
}

// perLayerSpecs lists every per-layer metric; layers are the repo's packages.
var perLayerSpecs = slices.Concat(
	layerMetrics("core", srcUntraced, "count", "lower", movesCoreAborts,
		"attempts_per_commit", "root_aborts_per_commit", "ct_aborts_per_commit"),
	layerMetrics("core", srcUntraced, "ratio", "higher", movesCoreReads, "local_commit_frac"),
	layerMetrics("core", srcUntraced, "count", "lower", movesCoreReads, "read_rounds_per_txn"),
	layerMetrics("core", srcUntraced, "count", "higher", movesCoreReads, "local_reads_per_txn"),
	layerMetrics("core", srcUntraced, "count", "lower", movesCoreReads, "commit_rounds_per_txn"),
	layerMetrics("core", srcTraced, "us", "lower", movesCoreSelf, "self_us_p50", "self_us_p99"),
	layerMetrics("core", srcTraced, "ms", "lower", movesCoreAborts, "backoff_ms_per_commit"),
	layerMetrics("core", srcTraced, "count", "lower", movesCoreAborts,
		"abort_read_validation_per_commit", "abort_lock_denied_per_commit", "abort_commit_conflict_per_commit"),

	layerMetrics("cluster", srcUntraced, "count", "lower", movesClusterVol, "msgs_per_txn"),
	layerMetrics("cluster", srcUntraced, "B", "lower", movesClusterVol, "bytes_per_txn"),
	layerMetrics("cluster", srcUntraced, "count", "lower", movesClusterVol, "calls_per_txn"),
	layerMetrics("cluster", srcUntraced, "ratio", "lower", movesClusterVol, "failed_call_frac"),
	layerMetrics("cluster", srcTraced, "us", "lower", movesClusterRTT,
		"read_rtt_us_p50", "read_rtt_us_p99", "prepare_rtt_us_p50", "prepare_rtt_us_p99",
		"decide_rtt_us_p50", "decide_rtt_us_p99", "net_us_p50", "net_us_p99", "queue_wait_us_p99"),
	layerMetrics("cluster", srcFloor, "us", "lower", movesClusterRTT, "echo_rtt_us_p50", "multicast7_rtt_us_p50"),
	layerMetrics("cluster", srcFloor, "count", "lower", movesClusterVol, "echo_allocs_per_call"),

	layerMetrics("proto", srcFloor, "ns", "lower", movesProto,
		"enc_read_req_ns", "dec_read_rep_ns", "enc_batch_read_req_ns", "dec_batch_read_rep_ns",
		"enc_prepare_req_ns", "dec_prepare_req_ns", "enc_decide_req_ns", "dec_decide_req_ns"),
	layerMetrics("proto", srcFloor, "ns", "lower", movesProtoGob, "enc_read_rep_gobval_ns", "dec_read_rep_gobval_ns"),
	layerMetrics("proto", srcFloor, "B", "lower", movesProto, "prepare_req_bytes"),
	layerMetrics("proto", srcFloor, "B", "lower", movesProtoGob, "read_rep_gobval_bytes"),
	layerMetrics("proto", srcFloor, "count", "lower", movesProto, "codec_allocs_per_msg"),

	layerMetrics("server", srcTraced, "us", "lower", movesServe,
		"serve_read_us_p50", "serve_read_us_p99", "serve_prepare_us_p50", "serve_prepare_us_p99",
		"serve_decide_us_p50", "serve_decide_us_p99"),
	layerMetrics("server", srcTraced, "count", "lower", movesServe, "handled_per_txn"),
	layerMetrics("server", srcTraced, "ratio", "lower", movesServe, "busy_frac"),
	layerMetrics("server", srcUntraced, "ratio", "lower", movesReject, "prepare_reject_frac", "read_abort_frac"),
	layerMetrics("server", srcFloor, "us", "lower", movesServe, "prepare_decide_floor_us"),

	layerMetrics("store", srcFloor, "ns", "lower", movesStore,
		"read_ns", "validate_delta_ns", "prepare_ns", "commit_ns", "abort_ns"),

	layerMetrics("wal", srcUntraced, "count", "lower", movesWAL, "fsyncs_per_txn"),
	layerMetrics("wal", srcUntraced, "B", "lower", movesWAL, "log_bytes_per_txn"),
	layerMetrics("wal", srcUntraced, "count", "higher", movesWAL, "appends_per_fsync"),
	layerMetrics("wal", srcTraced, "ms", "lower", movesWAL, "fsync_ms_p50", "fsync_ms_p99"),
	layerMetrics("wal", srcTraced, "us", "lower", movesWAL, "serve_prepare_extra_us"),
	layerMetrics("wal", srcFloor, "us", "lower", movesWAL,
		"append_sync_us_p50", "append_w1ms_us_p50", "append_w1ms_c8_us_p50"),

	layerMetrics("quorum", srcFloor, "ns", "lower", movesQuorum, "read_quorum_ns", "write_quorum_ns"),
	layerMetrics("quorum", srcStatic, "count", "lower", movesQuorum, "read_quorum_size", "write_quorum_size"),

	layerMetrics("load", srcFloor, "us", "lower", movesLoad, "dispatch_overshoot_us_p50", "dispatch_overshoot_us_p99"),

	layerMetrics("obs", srcDerived, "ratio", "lower", movesObs, "overhead_frac"),

	layerMetrics("runtime", srcUntraced, "count", "lower", movesRuntime, "allocs_per_txn"),
	layerMetrics("runtime", srcUntraced, "B", "lower", movesRuntime, "alloc_bytes_per_txn"),
	layerMetrics("runtime", srcUntraced, "ms", "lower", movesRuntime, "gc_pause_ms_per_s"),
	layerMetrics("runtime", srcUntraced, "MB", "lower", movesRuntime, "heap_inuse_mb"),
	layerMetrics("runtime", srcUntraced, "count", "lower", movesRuntime, "goroutines"),

	layerMetrics("bench", srcDerived, "ratio", "lower", movesBench, "trace_overhead_frac"),
)

// unitOf resolves a metric's unit from the tables above.
func unitOf(name string) string {
	if name == failedFrac {
		return "ratio"
	}
	for _, m := range endToEndSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayerSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in spec.go")
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// readBenchmarkFile loads BENCHMARK.json from the repository root, whether
// the process runs there (run.sh) or inside benchmark/ (go run, go test).
func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return bf, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return bf, nil
}
