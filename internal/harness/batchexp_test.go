package harness

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBatchExperiment runs the batched-read A/B experiment at a small scale
// and pins its acceptance property: batching + delta-Rqv must reduce both
// transport messages per committed transaction and payload bytes per
// committed transaction on every cell, at equal (verified) correctness —
// every cell runs with workload verification on, so a wrong read surfaces
// as a Run error, not a skewed number.
//
// Two runs, because the two halves of that sentence need different clients.
// Correctness needs concurrency: two clients conflict, abort and retry, and
// verification would catch a batched read that broke isolation. The counts
// need its absence: with one client the per-transaction messages and bytes
// are a function of the seeded workload alone and repeat exactly, where two
// clients on a loaded machine can abort often enough to outweigh the saving
// on a 12-transaction sample (seen: vacation 64.3 vs 64.2 msgs/txn).
func TestBatchExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	t.Run("concurrent", func(t *testing.T) {
		runBatchPairs(t, 2, 6, func(legacy, batched batchRecord) {})
	})
	t.Run("exact", func(t *testing.T) {
		runBatchPairs(t, 1, 12, func(legacy, batched batchRecord) {
			t.Logf("%s/%s: msgs/txn %0.1f -> %0.1f, bytes/txn %0.0f -> %0.0f", legacy.Workload, legacy.Mode,
				legacy.MsgsPerTxn, batched.MsgsPerTxn, legacy.BytesPerTxn, batched.BytesPerTxn)
			if batched.MsgsPerTxn >= legacy.MsgsPerTxn {
				t.Errorf("%s/%s: msgs/txn %0.1f (batched) >= %0.1f (legacy)",
					legacy.Workload, legacy.Mode, batched.MsgsPerTxn, legacy.MsgsPerTxn)
			}
			if batched.BytesPerTxn >= legacy.BytesPerTxn {
				t.Errorf("%s/%s: bytes/txn %0.0f (batched) >= %0.0f (legacy)",
					legacy.Workload, legacy.Mode, batched.BytesPerTxn, legacy.BytesPerTxn)
			}
		})
	})
}

// runBatchPairs runs the experiment (verification on) with the given client
// count and transactions per client, checks the artifact's shape — one
// legacy/batched pair per cell, commits on both sides, multi-object rounds
// on the batched one — and hands each pair to check.
func runBatchPairs(t *testing.T, clients, txns int, check func(legacy, batched batchRecord)) {
	t.Helper()
	old := BenchBatchPath
	BenchBatchPath = filepath.Join(t.TempDir(), "batch.json")
	defer func() { BenchBatchPath = old }()

	s := QuickScale()
	s.Clients, s.Txns = clients, txns
	tables, err := Batch(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2*len(batchCells) {
		t.Fatalf("tables = %+v", tables)
	}

	b, err := os.ReadFile(BenchBatchPath)
	if err != nil {
		t.Fatal(err)
	}
	var records []batchRecord
	if err := json.Unmarshal(b, &records); err != nil {
		t.Fatalf("batch json: %v", err)
	}
	if len(records) != 2*len(batchCells) {
		t.Fatalf("records = %d, want %d", len(records), 2*len(batchCells))
	}
	// Records come in legacy/batched pairs per cell.
	for i := 0; i < len(records); i += 2 {
		legacy, batched := records[i], records[i+1]
		if legacy.Batched || !batched.Batched {
			t.Fatalf("pair %d out of order: %+v / %+v", i, legacy, batched)
		}
		if legacy.Commits == 0 || batched.Commits == 0 {
			t.Fatalf("%s/%s: no commits (legacy %d, batched %d)",
				legacy.Workload, legacy.Mode, legacy.Commits, batched.Commits)
		}
		if batched.BatchP90 <= 1 {
			t.Errorf("%s/%s: batch p90 = %0.1f, want multi-object rounds",
				legacy.Workload, legacy.Mode, batched.BatchP90)
		}
		check(legacy, batched)
	}
}
