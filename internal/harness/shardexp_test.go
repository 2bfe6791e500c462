package harness

import (
	"context"
	"errors"
	"testing"
)

// TestShardRejectsTooFewNodes: below three nodes the migration cell has no
// three replicas to carve a shard from; Shard must say so as ErrScale before
// starting any cluster, not panic.
func TestShardRejectsTooFewNodes(t *testing.T) {
	s := QuickScale()
	for _, n := range []int{0, 1, 2} {
		s.Nodes = n
		if tabs, err := Shard(context.Background(), s); !errors.Is(err, ErrScale) || tabs != nil {
			t.Fatalf("Shard at %d nodes = %v, %v; want ErrScale", n, tabs, err)
		}
	}
}

// TestShardExperiment runs the sharding experiment at a small scale over real
// localhost TCP and pins its structural properties: three scaling cells at
// equal commits (speedup magnitudes are for the full bench run, not asserted
// here), and the live add-shard migration cell with a checked trace and the
// epoch advanced by two (fence, flip). runShard itself fails on a cell that
// loses money or a trace that breaks an invariant.
func TestShardExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	s := QuickScale()
	s.Clients, s.Txns = 1, 6 // 4 worker goroutines per cell; keep the 13 nodes
	cells, mig, err := runShard(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("scaling cells = %+v", cells)
	}
	for _, rec := range cells {
		if rec.Commits == 0 {
			t.Fatalf("cell shards=%d committed nothing", rec.Shards)
		}
		// Every cell runs the identical transfer count to completion, so the
		// throughput comparison is priced at equal commits.
		if rec.Commits != cells[0].Commits {
			t.Fatalf("unequal commits across cells: %+v", cells)
		}
	}
	if mig.Traces == 0 {
		t.Fatalf("migration cell checked no traces: %+v", mig)
	}
	if mig.EpochAfter != mig.EpochBefore+2 {
		t.Fatalf("migration must advance the epoch by two (fence, flip): %+v", mig)
	}
	if mig.CommitsDuring == 0 {
		t.Fatalf("no traffic committed across the migration: %+v", mig)
	}
	if mig.SlotsMoved == 0 {
		t.Fatalf("migration moved no slots: %+v", mig)
	}
	tab := shardTable(cells, mig)
	if len(tab.Rows) != 4 {
		t.Fatalf("shard table has %d rows, want 3 cells and the migration: %+v", len(tab.Rows), tab.Rows)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %q has %d cells, header %d", row, len(row), len(tab.Header))
		}
	}
}
