package harness

import (
	"context"
	"fmt"
	"math/rand/v2"

	"qrdtm"
	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// OpenNesting compares the three nesting models on a workload built for
// open nesting's sweet spot (after TFA-ON's evaluation and Moss's
// open-nesting examples): every transaction does some private work (scan a
// few accounts) and then bumps one hot shared counter. Under flat and
// closed nesting the counter stays in the root's write set, so every pair
// of concurrent transactions physically conflicts for their whole
// durations. Under open nesting the bump is semantically commutative — it
// needs no abstract lock at all — and commits immediately as a tiny
// independent subtransaction, shrinking the conflict window on the counter
// from a whole root transaction to one commit round; a compensation
// (decrement) undoes it if the root later aborts.
func OpenNesting(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "ablopen",
		Title:  "nesting models on a hot-counter workload (scan + shared counter bump)",
		Header: []string{"model", "txn/s", "aborts/txn", "counter-correct"},
	}
	for _, model := range []string{"flat", "closed", "open"} {
		tput, abortsPerTxn, ok, err := runHotCounter(ctx, s, model)
		if err != nil {
			return nil, fmt.Errorf("ablopen %s: %w", model, err)
		}
		t.Rows = append(t.Rows, []string{
			model, f1(tput), fmt.Sprintf("%.2f", abortsPerTxn),
			map[bool]string{true: "yes", false: "NO"}[ok],
		})
	}
	return []Table{t}, nil
}

func runHotCounter(ctx context.Context, s Scale, model string) (tput, abortsPerTxn float64, counterOK bool, err error) {
	const accounts = 64
	const scan = 12
	mode := core.Flat
	if model != "flat" {
		mode = core.Closed
	}
	c, err := simCluster(qrdtm.ClusterConfig{
		Nodes:   s.Nodes,
		Mode:    mode,
		Latency: s.Latency,
		TxTime:  s.TxTime,
	})
	if err != nil {
		return 0, 0, false, err
	}
	copies := bankAccounts(accounts)
	copies = append(copies, proto.ObjectCopy{ID: "hot/counter", Version: 1, Val: proto.Int64(0)})
	c.Load(copies)

	bump := func(tx *core.Txn) error {
		v, err := tx.Read("hot/counter")
		if err != nil {
			return err
		}
		return tx.Write("hot/counter", v.(proto.Int64)+1)
	}
	unbump := func(tx *core.Txn) error {
		v, err := tx.Read("hot/counter")
		if err != nil {
			return err
		}
		return tx.Write("hot/counter", v.(proto.Int64)-1)
	}

	before := c.Metrics().Snapshot()
	elapsed, err := runClients(s.Clients, func(cl int) error {
		rt := c.Runtime(proto.NodeID(cl % s.Nodes))
		rng := rand.New(rand.NewPCG(s.Seed, uint64(cl)+1))
		for i := 0; i < s.Txns; i++ {
			rows := make([]int, scan)
			for j := range rows {
				rows[j] = rng.IntN(accounts)
			}
			err := rt.Atomic(ctx, func(tx *core.Txn) error {
				// The hot shared counter is taken FIRST (as an id/size
				// counter would be), so under flat and closed nesting it
				// sits stale in the footprint for the whole transaction.
				var err error
				switch model {
				case "open":
					// Commutative op: no abstract lock needed; commits
					// immediately, so the root never carries it.
					err = tx.Open(nil, bump, unbump)
				case "closed":
					err = tx.Nested(bump)
				default:
					err = bump(tx)
				}
				if err != nil {
					return err
				}
				// Private work: scan and adjust one account.
				var sum int64
				for _, row := range rows[:scan-1] {
					v, err := tx.Read(scanID(row))
					if err != nil {
						return err
					}
					sum += int64(v.(proto.Int64))
				}
				return tx.Write(scanID(rows[scan-1]), proto.Int64(sum))
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, false, err
	}

	snap := c.Metrics().Snapshot().Sub(before)
	commits := s.Clients * s.Txns
	cp, err := c.ReadCommitted(ctx, "hot/counter")
	if err != nil {
		return 0, 0, false, err
	}
	counterOK = int64(cp.Val.(proto.Int64)) == int64(commits)
	return float64(commits) / elapsed.Seconds(),
		float64(snap.TotalAborts()+snap.OpenAborts) / float64(commits),
		counterOK, nil
}
