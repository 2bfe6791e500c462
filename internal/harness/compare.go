package harness

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"qrdtm"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/decent"
	"qrdtm/internal/dtm"
	"qrdtm/internal/proto"
	"qrdtm/internal/tfa"
)

// CompareConfig describes one Figure 9 cell: the Bank benchmark on one of
// the three DTM systems.
type CompareConfig struct {
	System        string // "qr", "tfa", "decent"
	Nodes         int
	Clients       int
	TxnsPerClient int
	Accounts      int
	ReadRatio     float64
	Seed          uint64
	Latency       cluster.LatencyModel
	TxTime        time.Duration
}

func (c CompareConfig) withDefaults() CompareConfig {
	if c.Nodes == 0 {
		c.Nodes = 13
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.TxnsPerClient == 0 {
		c.TxnsPerClient = 50
	}
	if c.Accounts == 0 {
		c.Accounts = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Latency == nil {
		c.Latency = cluster.ZeroLatency{}
	}
	if c.TxTime == 0 {
		c.TxTime = time.Millisecond
	}
	return c
}

// CompareResult is one comparison cell's measurement.
type CompareResult struct {
	System     string
	Clients    int
	ReadRatio  float64
	Elapsed    time.Duration
	Commits    int
	Throughput float64
	Messages   uint64
}

// bankAccounts builds the initial account objects.
func bankAccounts(n int) []proto.ObjectCopy {
	copies := make([]proto.ObjectCopy, n)
	for i := range copies {
		copies[i] = proto.ObjectCopy{
			ID: proto.ObjectID(fmt.Sprintf("acct/%d", i)), Version: 1,
			Val: proto.Int64(1000),
		}
	}
	return copies
}

// bankTxn runs one Bank transaction (transfer or two-account audit) over
// the generic DTM interface.
func bankTxn(ctx context.Context, s dtm.System, rng *rand.Rand, accounts int, readRatio float64) error {
	from := rng.IntN(accounts)
	to := rng.IntN(accounts)
	if to == from {
		to = (to + 1) % accounts
	}
	audit := rng.Float64() < readRatio
	amt := int64(rng.IntN(10) + 1)
	fromID := proto.ObjectID(fmt.Sprintf("acct/%d", from))
	toID := proto.ObjectID(fmt.Sprintf("acct/%d", to))
	return s.Atomic(ctx, func(tx dtm.Tx) error {
		fv, err := tx.Read(fromID)
		if err != nil {
			return err
		}
		tv, err := tx.Read(toID)
		if err != nil {
			return err
		}
		if audit {
			_ = int64(fv.(proto.Int64)) + int64(tv.(proto.Int64))
			return nil
		}
		if err := tx.Write(fromID, proto.Int64(int64(fv.(proto.Int64))-amt)); err != nil {
			return err
		}
		return tx.Write(toID, proto.Int64(int64(tv.(proto.Int64))+amt))
	})
}

// RunCompare executes one Figure 9 cell.
func RunCompare(ctx context.Context, cfg CompareConfig) (CompareResult, error) {
	cfg = cfg.withDefaults()

	var systems []dtm.System
	var stats func() cluster.Stats

	switch cfg.System {
	case "qr":
		c, err := simCluster(qrdtm.ClusterConfig{
			Nodes:   cfg.Nodes,
			Mode:    core.Flat, // the paper's QR-DTM comparison runs the base protocol
			Latency: cfg.Latency,
			TxTime:  cfg.TxTime,
		})
		if err != nil {
			return CompareResult{}, err
		}
		c.Load(bankAccounts(cfg.Accounts))
		for i := 0; i < cfg.Clients; i++ {
			systems = append(systems, dtm.FromRuntime(c.Runtime(proto.NodeID(i%cfg.Nodes))))
		}
		c.Transport.ResetStats()
		stats = c.Transport.Stats
	case "tfa":
		trans := cluster.NewMemTransport(cluster.WithLatency(cfg.Latency), cluster.WithTxTime(cfg.TxTime))
		c := tfa.NewCluster(cfg.Nodes, trans)
		c.Load(bankAccounts(cfg.Accounts))
		for i := 0; i < cfg.Clients; i++ {
			systems = append(systems, c.System(proto.NodeID(i%cfg.Nodes)))
		}
		trans.ResetStats()
		stats = trans.Stats
	case "decent":
		trans := cluster.NewMemTransport(cluster.WithLatency(cfg.Latency), cluster.WithTxTime(cfg.TxTime))
		c := decent.NewCluster(cfg.Nodes, trans)
		c.Load(bankAccounts(cfg.Accounts))
		for i := 0; i < cfg.Clients; i++ {
			systems = append(systems, c.System(proto.NodeID(i%cfg.Nodes)))
		}
		trans.ResetStats()
		stats = trans.Stats
	default:
		return CompareResult{}, fmt.Errorf("harness: unknown system %q", cfg.System)
	}

	elapsed, err := runClients(cfg.Clients, func(cl int) error {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(cl)+1))
		for i := 0; i < cfg.TxnsPerClient; i++ {
			if err := bankTxn(ctx, systems[cl], rng, cfg.Accounts, cfg.ReadRatio); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return CompareResult{}, err
	}

	commits := cfg.Clients * cfg.TxnsPerClient
	return CompareResult{
		System:     systems[0].Name(),
		Clients:    cfg.Clients,
		ReadRatio:  cfg.ReadRatio,
		Elapsed:    elapsed,
		Commits:    commits,
		Throughput: float64(commits) / elapsed.Seconds(),
		Messages:   stats().Messages,
	}, nil
}
