package harness

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"qrdtm"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/dtm"
	"qrdtm/internal/proto"
	"qrdtm/internal/tfa"
)

// NestingGain quantifies the paper's core thesis from a different angle:
// how much closed nesting buys in *replicated* DTM (QR-CN vs flat QR)
// compared with *single-copy* DTM (N-TFA vs TFA, the related-work protocol
// that reported only ~2% average gain). Partial aborts pay in proportion to
// the cost of the work they avoid redoing — quorum requests are much more
// expensive than unicasts, so the same mechanism helps QR far more.
//
// The workload is the same on both systems: each transaction performs
// several scan-and-adjust operations (read scanWidth accounts, rewrite the
// last), giving every nested call a real footprint for a partial abort to
// save.
func NestingGain(ctx context.Context, s Scale) ([]Table, error) {
	t := Table{
		ID:     "ntfa",
		Title:  "nesting gain: QR-CN vs flat QR (replicated) and N-TFA vs TFA (single copy)",
		Header: []string{"system", "flat txn/s", "nested txn/s", "gain"},
	}
	flatQR, err := runScan(ctx, s, "qr", false)
	if err != nil {
		return nil, err
	}
	cnQR, err := runScan(ctx, s, "qr", true)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"QR-DTM", f1(flatQR), f1(cnQR), pct(cnQR, flatQR)})

	flatTFA, err := runScan(ctx, s, "tfa", false)
	if err != nil {
		return nil, err
	}
	nTFA, err := runScan(ctx, s, "tfa", true)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"TFA", f1(flatTFA), f1(nTFA), pct(nTFA, flatTFA)})
	return []Table{t}, nil
}

const (
	scanAccounts = 32
	scanWidth    = 6
	scanOps      = 4
)

// scanOp is one pre-drawn operation: read rows[0..n-2], write rows[n-1].
type scanOp struct {
	rows [scanWidth]int
}

func drawScanTxn(rng *rand.Rand) []scanOp {
	ops := make([]scanOp, scanOps)
	for i := range ops {
		for j := range ops[i].rows {
			ops[i].rows[j] = rng.IntN(scanAccounts)
		}
	}
	return ops
}

func scanID(i int) proto.ObjectID {
	return proto.ObjectID(fmt.Sprintf("acct/%d", i))
}

// runScan measures the scan workload on one system, flat or nested.
func runScan(ctx context.Context, s Scale, system string, nested bool) (float64, error) {
	var run func(cl int) error
	switch system {
	case "qr":
		mode := core.Flat
		if nested {
			mode = core.Closed
		}
		// Same fan-out-priced transport as Figure 9, so the two systems'
		// request costs are comparable.
		c, err := simCluster(qrdtm.ClusterConfig{
			Nodes:   s.Nodes,
			Mode:    mode,
			Latency: cluster.ZeroLatency{},
			TxTime:  time.Millisecond,
		})
		if err != nil {
			return 0, err
		}
		c.Load(bankAccounts(scanAccounts))
		run = func(cl int) error {
			rt := c.Runtime(proto.NodeID(cl % s.Nodes))
			rng := rand.New(rand.NewPCG(s.Seed, uint64(cl)+1))
			for i := 0; i < s.Txns; i++ {
				ops := drawScanTxn(rng)
				err := rt.Atomic(ctx, func(tx *core.Txn) error {
					for _, op := range ops {
						body := func(ct *core.Txn) error { return qrScanOp(ct, op) }
						var err error
						if nested {
							err = tx.Nested(body)
						} else {
							err = body(tx)
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		}
	case "tfa":
		trans := cluster.NewMemTransport(cluster.WithLatency(cluster.ZeroLatency{}), cluster.WithTxTime(time.Millisecond))
		c := tfa.NewCluster(s.Nodes, trans)
		c.Load(bankAccounts(scanAccounts))
		run = func(cl int) error {
			sys := c.System(proto.NodeID(cl % s.Nodes))
			rng := rand.New(rand.NewPCG(s.Seed, uint64(cl)+1))
			for i := 0; i < s.Txns; i++ {
				ops := drawScanTxn(rng)
				err := sys.Atomic(ctx, func(tx dtm.Tx) error {
					for _, op := range ops {
						var err error
						if nested {
							op := op
							err = tx.(*tfa.Tx).Nested(func(ct dtm.Tx) error { return dtmScanOp(ct, op) })
						} else {
							err = dtmScanOp(tx, op)
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		}
	default:
		return 0, fmt.Errorf("harness: unknown scan system %q", system)
	}

	elapsed, err := runClients(s.Clients, run)
	if err != nil {
		return 0, fmt.Errorf("scan %s nested=%v: %w", system, nested, err)
	}
	commits := s.Clients * s.Txns
	return float64(commits) / elapsed.Seconds(), nil
}

// qrScanOp reads the scanned rows and rewrites the last with their sum.
func qrScanOp(tx *core.Txn, op scanOp) error {
	var sum int64
	for _, row := range op.rows[:scanWidth-1] {
		v, err := tx.Read(scanID(row))
		if err != nil {
			return err
		}
		if v != nil {
			sum += int64(v.(proto.Int64))
		}
	}
	return tx.Write(scanID(op.rows[scanWidth-1]), proto.Int64(sum))
}

// dtmScanOp is the same operation over the generic interface (TFA).
func dtmScanOp(tx dtm.Tx, op scanOp) error {
	var sum int64
	for _, row := range op.rows[:scanWidth-1] {
		v, err := tx.Read(scanID(row))
		if err != nil {
			return err
		}
		if v != nil {
			sum += int64(v.(proto.Int64))
		}
	}
	return tx.Write(scanID(op.rows[scanWidth-1]), proto.Int64(sum))
}
