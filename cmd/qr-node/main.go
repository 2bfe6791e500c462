// Command qr-node runs one QR-DTM replica over real TCP, and can drive a
// demo workload against a running cluster — proof that the protocols are
// not bound to the in-memory simulator.
//
// Start a 4-node cluster (four shells, or one with &):
//
//	qr-node -id 0 -listen 127.0.0.1:7400 &
//	qr-node -id 1 -listen 127.0.0.1:7401 &
//	qr-node -id 2 -listen 127.0.0.1:7402 &
//	qr-node -id 3 -listen 127.0.0.1:7403 &
//
// Then run transactions against it:
//
//	qr-node -client -peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403
//
// Pass -shards N in client mode to partition the object space into N quorum
// groups: the client installs the shard map on every replica (replicas serve
// whatever map they are handed) and commits cross-shard transactions with
// 2PC over the union of per-shard write quorums.
//
// Either mode takes -admin addr to expose a live-inspection HTTP surface
// (JSON metrics, liveness, profiling):
//
//	qr-node -id 0 -listen 127.0.0.1:7400 -admin 127.0.0.1:7500 &
//	curl -s 127.0.0.1:7500/metrics | head
//	curl -s 127.0.0.1:7500/healthz
//	go tool pprof http://127.0.0.1:7500/debug/pprof/profile?seconds=5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"qrdtm"
	"strings"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
	"qrdtm/internal/wal"
)

func main() {
	id := flag.Int("id", 0, "node id (position in the ternary tree)")
	listen := flag.String("listen", "127.0.0.1:7400", "listen address (server mode)")
	client := flag.Bool("client", false, "run the demo client instead of a replica")
	peers := flag.String("peers", "", "comma-separated replica addresses, ordered by node id (client mode; server mode: catch up from these peers' log tails before serving)")
	mode := flag.String("mode", "closed", "client protocol mode: flat, flatrqv, closed, checkpoint")
	txns := flag.Int("txns", 20, "demo transactions to run (client mode)")
	retries := flag.Int("retries", 6, "per-call attempt budget for transient faults (client mode; 1 disables retry)")
	callTimeout := flag.Duration("call-timeout", 2*time.Second, "per-attempt call timeout (client mode; 0 disables)")
	admin := flag.String("admin", "", "admin HTTP address serving /metrics, /healthz, /trace, /debug/pprof/ (empty disables)")
	trace := flag.Bool("trace", false, "record causal spans into a ring buffer (served at /trace and to TraceDump requests)")
	audit := flag.Bool("audit", true, "run the streaming trace auditor over the span ring (effective with -trace / -trace-out; violations surface in /healthz)")
	traceOut := flag.String("trace-out", "", "client mode: collect spans from every replica after the run and write Chrome trace-event JSON here (implies tracing)")
	shards := flag.Int("shards", 0, "client mode: partition the object space into this many quorum groups (0/1 = one tree over all replicas)")
	goMetrics := flag.Bool("go-metrics", false, "export Go runtime gauges (goroutines, heap, GC pause p99) on /metrics; off by default so untouched scrapes stay byte-identical")
	dataDir := flag.String("data-dir", "", "server mode: durable data directory (write-ahead log + snapshots); empty runs in-memory")
	snapshotEvery := flag.Uint64("snapshot-every", 4096, "server mode: snapshot + compact the log every this many records (0 disables automatic snapshots)")
	flag.Parse()

	if *client {
		if err := runClient(*peers, *mode, *txns, *retries, *callTimeout, *admin, *traceOut, *shards, *trace, *audit, *goMetrics); err != nil {
			log.Fatal(err)
		}
		return
	}

	reg := obs.NewRegistry()
	if *trace {
		reg.WithSpans(obs.NewSpanBuffer(traceRingSize))
	}
	if *goMetrics {
		obs.RegisterRuntimeGauges(reg)
	}
	rep := server.New(proto.NodeID(*id)).WithObs(reg)
	if *dataDir != "" {
		// Durable startup: restore snapshot + log, then pull what was missed
		// from the peers' log tails — all before the listener opens, so no
		// live prepare can race the catch-up.
		w, res, err := wal.Open(wal.Options{
			Dir:           *dataDir,
			SnapshotEvery: *snapshotEvery,
			Obs:           reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
		rep.WithWAL(w)
		rep.Restore(res)
		log.Printf("qr-node %d restored from %s: %d log records replayed, %d prepared-but-undecided txns, torn tail=%v",
			*id, *dataDir, len(res.Records), rep.RestoredProtections(), res.Torn)
		var stats qrdtm.CatchUpStats
		if *peers != "" {
			addrs := strings.Split(*peers, ",")
			pm := make(map[proto.NodeID]string, len(addrs))
			ids := make([]proto.NodeID, len(addrs))
			for i, a := range addrs {
				pm[proto.NodeID(i)] = strings.TrimSpace(a)
				ids[i] = proto.NodeID(i)
			}
			tcp := cluster.NewTCPTransport(pm)
			trans := cluster.NewRetryTransport(tcp, cluster.RetryPolicy{MaxAttempts: 3, CallTimeout: 2 * time.Second})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			stats, err = qrdtm.CatchUp(ctx, trans, proto.NodeID(*id), ids, rep)
			cancel()
			tcp.Close()
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("qr-node %d catch-up: %d records from %d peer tails, %d full resyncs, %d peers skipped, %d stale protections dropped",
				*id, stats.RecordsApplied, stats.TailPeers, stats.FullResyncs, stats.SkippedPeers, stats.DroppedProtections)
		} else {
			// No peers to consult: resolve pre-crash protections locally
			// (nobody will ever deliver their decides to a lone node).
			stats.DroppedProtections = rep.ResolveRestoredProtections()
		}
		reg.RegisterGauge("catchup_tail_total", func() int64 { return int64(stats.TailPeers) })
		reg.RegisterGauge("catchup_full_total", func() int64 { return int64(stats.FullResyncs) })
		reg.RegisterGauge("catchup_records_applied", func() int64 { return int64(stats.RecordsApplied) })
		reg.RegisterGauge("catchup_dropped_protections", func() int64 { return int64(stats.DroppedProtections) })
	}
	srv, err := cluster.ListenTCP(proto.NodeID(*id), *listen, rep.Handle)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("qr-node %d serving on %s", *id, srv.Addr())

	var auditor *obs.Auditor
	if *trace && *audit {
		// Replica-side spans are all locally parented (each serve span's
		// parent is the client round that carried the trace context), so the
		// auditor checks what this node can see and flags the rest incomplete.
		auditor = obs.NewAuditor(reg, obs.AuditorConfig{})
		auditor.Start()
		defer auditor.Stop()
	}

	if *admin != "" {
		a := obs.NewAdmin().
			WithRegistry(reg).
			WithAuditor(auditor).
			HealthSource(func() obs.Health {
				return obs.Health{Status: "ok", Node: *id, Role: "replica"}
			}).
			Source("node", func() any {
				return map[string]any{"id": *id, "addr": srv.Addr(), "role": "replica"}
			}).
			Source("server", func() any { return rep.Metrics().Snapshot() }).
			Source("obs", func() any { return reg.Snapshot() })
		addr, shutdown, err := a.ListenAndServe(*admin)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		log.Printf("qr-node %d admin on http://%s/metrics", *id, addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	log.Printf("qr-node %d shutting down", *id)
	_ = srv.Close()
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "flat":
		return core.Flat, nil
	case "flatrqv":
		return core.FlatRqv, nil
	case "closed":
		return core.Closed, nil
	case "checkpoint":
		return core.Checkpoint, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

// traceRingSize holds roughly a thousand demo transactions' worth of spans.
const traceRingSize = 1 << 16

func runClient(peerList, modeName string, txns, retries int, callTimeout time.Duration, admin, traceOut string, shards int, trace, audit, goMetrics bool) error {
	if peerList == "" {
		return fmt.Errorf("client mode needs -peers")
	}
	mode, err := parseMode(modeName)
	if err != nil {
		return err
	}
	addrs := strings.Split(peerList, ",")
	peers := make(map[proto.NodeID]string, len(addrs))
	for i, a := range addrs {
		peers[proto.NodeID(i)] = strings.TrimSpace(a)
	}

	reg := obs.NewRegistry()
	if trace || traceOut != "" {
		reg.WithSpans(obs.NewSpanBuffer(traceRingSize))
	}
	if goMetrics {
		obs.RegisterRuntimeGauges(reg)
	}
	tcp := cluster.NewTCPTransport(peers, cluster.WithObs(reg))
	defer tcp.Close()
	// Mask transient connection faults (a replica restarting, a reset
	// connection) with bounded retry so they don't surface as node crashes.
	trans := cluster.NewRetryTransport(tcp, cluster.RetryPolicy{
		MaxAttempts: retries,
		CallTimeout: callTimeout,
	})
	var auditor *obs.Auditor
	if audit && reg.Tracing() {
		auditor = obs.NewAuditor(reg, obs.AuditorConfig{})
		auditor.Start()
		defer auditor.Stop()
	}
	all := make([]proto.NodeID, len(addrs))
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	if shards > 1 {
		// Stand in for the reconfiguration controller: install the partition
		// on every replica (replicas serve whatever map they're handed).
		m := proto.PartitionMap(all, shards)
		for _, rep := range cluster.Multicast(context.Background(), trans, 0, all, proto.MapUpdateReq{Map: m}) {
			if rep.Err != nil {
				return fmt.Errorf("installing shard map at node %d: %w", rep.Node, rep.Err)
			}
		}
		log.Printf("installed shard map: %d shards over %d replicas (epoch %d)", shards, len(addrs), m.Epoch)
	}
	// Route through the cluster's map — per-shard quorum groups when it is
	// partitioned, the one tree when it answers the zero map — refetching it
	// whenever a replica denies an op with WrongShard.
	cfg := core.Config{
		Node:      proto.NodeID(0),
		Transport: trans,
		Mode:      mode,
		Obs:       reg,
		Quorums: core.TreeQuorums{Tree: quorum.NewTree(len(addrs)), Map: func() (proto.ShardMap, error) {
			return core.FetchShardMap(context.Background(), trans, 0, all)
		}},
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return err
	}

	if admin != "" {
		a := obs.NewAdmin().
			WithRegistry(reg).
			WithAuditor(auditor).
			HealthSource(func() obs.Health {
				up, down := tcp.PeerCounts()
				return obs.Health{
					Status: "ok", Node: 0, Role: "client",
					ViewEpoch: rt.ViewEpoch(), PeersUp: up, PeersDown: down,
				}
			}).
			Source("node", func() any {
				return map[string]any{"role": "client", "mode": mode.String(), "peers": len(addrs)}
			}).
			Source("core", func() any { return rt.Metrics().Snapshot() }).
			Source("transport", func() any { return trans.Stats() }).
			Source("obs", func() any { return reg.Snapshot() })
		addr, shutdown, err := a.ListenAndServe(admin)
		if err != nil {
			return err
		}
		defer shutdown()
		log.Printf("client admin on http://%s/metrics", addr)
	}

	ctx := context.Background()
	// Seed the counter via a write quorum so every replica agrees.
	err = rt.Atomic(ctx, func(tx *core.Txn) error {
		v, err := tx.Read("demo/counter")
		if err != nil {
			return err
		}
		if v == nil {
			return tx.Write("demo/counter", proto.Int64(0))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("seeding: %w", err)
	}

	for i := 0; i < txns; i++ {
		err := rt.Atomic(ctx, func(tx *core.Txn) error {
			v, err := tx.Read("demo/counter")
			if err != nil {
				return err
			}
			n := v.(proto.Int64)
			return tx.Nested(func(ct *core.Txn) error {
				return ct.Write("demo/counter", n+1)
			})
		})
		if err != nil {
			return fmt.Errorf("txn %d: %w", i, err)
		}
	}

	var final proto.Int64
	err = rt.Atomic(ctx, func(tx *core.Txn) error {
		v, err := tx.Read("demo/counter")
		if err != nil {
			return err
		}
		final = v.(proto.Int64)
		return nil
	})
	if err != nil {
		return err
	}
	m := rt.Metrics().Snapshot()
	st := trans.Stats()
	snap := reg.Snapshot()
	lat := snap.Sites[obs.SiteTxnLatency.String()]
	fmt.Printf("counter = %d after %d transactions over TCP (%v mode)\n", final, txns, mode)
	fmt.Printf("commits = %d, aborts = %d, read requests = %d, messages = %d, retries = %d, timeouts = %d\n",
		m.Commits, m.RootAborts+m.CTAborts, m.ReadRequests, st.Messages, st.Retries, st.Timeouts)
	fmt.Printf("txn latency: p50=%.1fms p99=%.1fms\n", lat.P50Ms, lat.P99Ms)
	fmt.Printf("abort causes: read-validation=%d lock-denied=%d commit-conflict=%d node-down=%d\n",
		snap.Aborts["read-validation"], snap.Aborts["lock-denied"],
		snap.Aborts["commit-conflict"], snap.Aborts["node-down"])

	if traceOut != "" {
		nodes := make([]proto.NodeID, len(addrs))
		for i := range addrs {
			nodes[i] = proto.NodeID(i)
		}
		merged := qrdtm.CollectTrace(ctx, trans, 0, nodes, reg.Spans().Spans())
		if len(merged) == 0 {
			return fmt.Errorf("trace collection: %w (are the replicas running with -trace?)", obs.ErrNoSpans)
		}
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, merged); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		check := obs.CheckTrace(merged)
		fmt.Printf("trace: %d spans, %d transactions -> %s (open in ui.perfetto.dev)\n",
			check.Spans, check.Traces, traceOut)
		fmt.Printf("trace check: %d complete traces, %d incomplete, %d violations\n",
			check.Traces, check.Incomplete, len(check.Violations))
		if err := check.Err(); err != nil {
			return err
		}
	}
	if auditor != nil {
		auditor.Stop() // idempotent; flushes so the printed stats are final
		fmt.Printf("streaming audit: %s\n", auditor.Stats())
	}
	return nil
}
