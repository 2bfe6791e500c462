package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"qrdtm/internal/core"
	"qrdtm/internal/obs"
)

// BenchBatchPath is where the Batch experiment writes its machine-readable
// output ("" disables the file; cmd/qr-bench exposes it as -batch-out).
var BenchBatchPath = "BENCH_batch.json"

// batchRecord is one cell's row in BENCH_batch.json: a workload under one
// protocol mode with batched delta-Rqv reads either on or off.
type batchRecord struct {
	Workload     string  `json:"workload"`
	Mode         string  `json:"mode"`
	Batched      bool    `json:"batched"`
	Throughput   float64 `json:"txn_per_sec"`
	Commits      uint64  `json:"commits"`
	MsgsPerTxn   float64 `json:"msgs_per_txn"`
	BytesPerTxn  float64 `json:"bytes_per_txn"`
	AbortsPerTxn float64 `json:"aborts_per_txn"`
	// BatchP50/BatchP90 are the per-read-round object-count percentiles
	// (obs.SiteBatchSize); 1.0 means every round fetched a single object.
	BatchP50 float64 `json:"batch_p50"`
	BatchP90 float64 `json:"batch_p90"`
}

// batchCells are the workload/mode pairs the experiment prices. Hashmap and
// SList are the acceptance anchors (bucket scans and traversals are where
// multi-object rounds pay); vacation exercises the ReadAll prefetch on a
// write-heavy footprint; the Checkpoint row shows the delta path composing
// with partial rollback.
var batchCells = []struct {
	workload string
	mode     core.Mode
}{
	{"hashmap", core.Closed},
	{"slist", core.Closed},
	{"vacation", core.Closed},
	{"hashmap", core.Checkpoint},
}

// Batch runs the batched-read A/B experiment: each cell twice — once with
// LegacyReads (per-object rounds carrying the full accumulated footprint,
// the pre-batching wire behavior) and once with batched multi-object rounds
// plus delta-Rqv — and reports throughput, read-quorum messages per
// committed transaction and payload bytes per committed transaction. Every
// cell runs with post-run invariant verification on, so the wire savings
// are measured at equal correctness. Alongside the table it writes
// BENCH_batch.json (see BenchBatchPath) for scripted consumption.
func Batch(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "batch",
		Title:  "batched quorum reads + delta-Rqv vs per-object full-footprint reads",
		Header: []string{"bench", "mode", "reads", "txn/s", "msgs/txn", "bytes/txn", "aborts/txn", "batch p50", "batch p90"},
	}
	var records []batchRecord
	for _, cell := range batchCells {
		for _, batched := range []bool{false, true} {
			reg := obs.NewRegistry()
			cfg := s.config(cell.workload, benchDefaults[cell.workload], cell.mode)
			cfg.LegacyReads = !batched
			cfg.Obs = reg
			cfg.Verify = true
			res, err := Run(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("batch %s %v batched=%v: %w", cell.workload, cell.mode, batched, err)
			}
			batch := res.Obs.Hists[obs.SiteBatchSize]
			rec := batchRecord{
				Workload:     res.Workload,
				Mode:         cell.mode.String(),
				Batched:      batched,
				Throughput:   res.Throughput,
				Commits:      res.Commits,
				MsgsPerTxn:   res.MsgsPerCommit(),
				BytesPerTxn:  res.BytesPerCommit(),
				AbortsPerTxn: res.AbortRate(),
				BatchP50:     float64(batch.Quantile(0.5)),
				BatchP90:     float64(batch.Quantile(0.9)),
			}
			records = append(records, rec)
			reads := "legacy"
			if batched {
				reads = "batched"
			}
			t.Rows = append(t.Rows, []string{
				cell.workload, cell.mode.String(), reads,
				f1(rec.Throughput), f1(rec.MsgsPerTxn), f0(rec.BytesPerTxn),
				fmt.Sprintf("%.2f", rec.AbortsPerTxn),
				f1(rec.BatchP50), f1(rec.BatchP90),
			})
		}
	}
	if BenchBatchPath != "" {
		if err := writeBenchBatch(BenchBatchPath, records); err != nil {
			return nil, err
		}
	}
	return []Table{t}, nil
}

// writeBenchBatch writes the A/B records as indented JSON.
func writeBenchBatch(path string, records []batchRecord) error {
	b, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return fmt.Errorf("batch: encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("batch: writing %s: %w", path, err)
	}
	return nil
}
