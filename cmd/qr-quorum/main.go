// Command qr-quorum inspects the ternary tree quorum system: it prints the
// tree layout and the read/write quorums for a given failure set, the same
// construction QR-DTM uses at runtime.
//
//	qr-quorum -nodes 13
//	qr-quorum -nodes 28 -down 0,1,2
//	qr-quorum -nodes 13 -enumerate
//	qr-quorum -nodes 28 -bench 100000   # time quorum construction
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
)

func main() {
	nodes := flag.Int("nodes", 13, "tree size")
	downList := flag.String("down", "", "comma-separated crashed node ids")
	choices := flag.Int("choices", 4, "how many nodes' spread read quorums to show")
	enumerate := flag.Bool("enumerate", false, "enumerate all quorums (small trees)")
	benchN := flag.Int("bench", 0, "time N read+write quorum constructions and print percentiles")
	prom := flag.Bool("prom", false, "print the -bench histogram in Prometheus text format instead of a summary line")
	flag.Parse()
	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "qr-quorum: -nodes must be at least 1, got %d\n", *nodes)
		flag.Usage()
		os.Exit(2)
	}

	tree := quorum.NewTree(*nodes)
	down := map[proto.NodeID]bool{}
	if *downList != "" {
		for _, s := range strings.Split(*downList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "qr-quorum: bad node id %q\n", s)
				os.Exit(2)
			}
			down[proto.NodeID(n)] = true
		}
	}
	alive := func(n proto.NodeID) bool { return !down[n] }

	fmt.Printf("ternary tree over %d nodes (children of i: 3i+1..3i+3)\n", *nodes)
	printTree(tree, 0, "", down)
	fmt.Println()

	rq, err := tree.ReadQuorum(alive)
	if err != nil {
		fmt.Printf("read quorum:  %v\n", err)
	} else {
		fmt.Printf("read quorum:  %v (size %d)\n", rq, len(rq))
	}
	wq, err := tree.WriteQuorum(alive)
	if err != nil {
		fmt.Printf("write quorum: %v\n", err)
	} else {
		fmt.Printf("write quorum: %v (size %d)\n", wq, len(wq))
	}

	if *choices > 1 {
		// The read quorum each node reads from when the runtime spreads
		// reads (core.TreeQuorums.Spread).
		fmt.Println("\nper-node read quorums (spread reads):")
		for n := 0; n < *nodes && n < *choices; n++ {
			q, err := tree.ReadQuorumSpread(alive, n)
			if err != nil {
				fmt.Printf("  %v\n", err)
				break
			}
			fmt.Printf("  node %d: %v\n", n, q)
		}
	}

	if *benchN > 0 {
		// Quorum construction runs on every transaction start and on every
		// reconfiguration, so its latency distribution matters; the node
		// cycles to cover every node's spread read quorum too.
		hist := obs.NewHistogram()
		for i := 0; i < *benchN; i++ {
			t0 := time.Now()
			_, errR := tree.ReadQuorumSpread(alive, i%*nodes)
			_, errW := tree.WriteQuorum(alive)
			hist.Record(int64(time.Since(t0)))
			if errR != nil || errW != nil {
				fmt.Fprintln(os.Stderr, "qr-quorum: no quorum under this failure set")
				os.Exit(1)
			}
		}
		s := hist.Snapshot()
		if *prom {
			fmt.Println()
			if err := obs.WritePromHist(os.Stdout, "qrdtm_quorum_build_seconds", s, true); err != nil {
				fmt.Fprintf(os.Stderr, "qr-quorum: %v\n", err)
				os.Exit(1)
			}
		} else {
			fmt.Printf("\nquorum construction (%d iterations, read+write pair): %s\n", *benchN, s)
		}
	}

	if *enumerate {
		rqs := tree.AllReadQuorums(alive, 64)
		wqs := tree.AllWriteQuorums(alive, 64)
		fmt.Printf("\nall read quorums (first %d):\n", len(rqs))
		for _, q := range rqs {
			fmt.Printf("  %v\n", q)
		}
		fmt.Printf("all write quorums (first %d):\n", len(wqs))
		for _, q := range wqs {
			fmt.Printf("  %v\n", q)
		}
	}
}

func printTree(t *quorum.Tree, v proto.NodeID, indent string, down map[proto.NodeID]bool) {
	status := ""
	if down[v] {
		status = "  [DOWN]"
	}
	fmt.Printf("%s%v%s\n", indent, v, status)
	for _, c := range t.Children(v) {
		printTree(t, c, indent+"  ", down)
	}
}
