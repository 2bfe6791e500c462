// Command qr-bench regenerates the paper's evaluation artifacts: every
// figure and table of "On Closed Nesting and Checkpointing in
// Fault-Tolerant Distributed Transactional Memory" (IPDPS 2013), plus the
// ablations called out in DESIGN.md and the shard and open-loop load
// experiments. Every experiment reports through the same tables, printed
// aligned or, with -csv, as CSV on stdout (only -cpuprofile and
// -memprofile write files).
//
// Usage:
//
//	qr-bench -exp fig5            # one experiment (see -list: fig5..fig10, chkovh, abl*, ntfa, quorums, faults, shard, load)
//	qr-bench -exp all             # the whole suite
//	qr-bench -exp fig8 -quick     # reduced scale (seconds instead of minutes)
//	qr-bench -exp fig9 -csv       # machine-readable output
//	qr-bench -list                # list experiment ids
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"qrdtm/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	quick := flag.Bool("quick", false, "reduced scale for a fast smoke run")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	clients := flag.Int("clients", 0, "override client count")
	txns := flag.Int("txns", 0, "override transactions per client")
	nodes := flag.Int("nodes", 0, "override replica count")
	seed := flag.Uint64("seed", 0, "override RNG seed")
	cpuProf := flag.String("cpuprofile", "", "per-step CPU profile prefix for the load experiment (measured window only)")
	memProf := flag.String("memprofile", "", "per-step heap profile prefix for the load experiment (measured window only)")
	admin := flag.String("admin", "", "serve the load experiment's obs registry on this address (e.g. 127.0.0.1:7500) for qr-top")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()
	harness.CPUProfilePrefix = *cpuProf
	harness.MemProfilePrefix = *memProf
	harness.LoadAdminAddr = *admin

	if *list {
		for _, id := range harness.ExperimentOrder {
			fmt.Println(id)
		}
		return
	}

	scale := harness.FullScale()
	if *quick {
		scale = harness.QuickScale()
	}
	if *clients > 0 {
		scale.Clients = *clients
	}
	if *txns > 0 {
		scale.Txns = *txns
	}
	if *nodes > 0 {
		scale.Nodes = *nodes
	}
	if *seed > 0 {
		scale.Seed = *seed
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ids := []string{*exp}
	if *exp == "all" {
		ids = harness.ExperimentOrder
	}
	for _, id := range ids {
		gen, ok := harness.Experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "qr-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tables, err := gen(ctx, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qr-bench: %s: %v\n", id, err)
			if errors.Is(err, harness.ErrScale) {
				flag.Usage()
				os.Exit(2)
			}
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				t.CSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
		fmt.Fprintf(os.Stderr, "# %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}
}
