// End-to-end distributed tracing over real TCP: causal trace contexts ride
// the binary wire, every replica records serve spans into its own ring, the
// client collects them with TraceDump requests, and the merged timeline both
// renders as Chrome trace-event JSON and passes the protocol checker.
package qrdtm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"qrdtm"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/testcluster"
)

// spanRings gives every replica its own span ring, the deployment shape of
// qr-node -trace.
func spanRings(proto.NodeID) *obs.Registry {
	return obs.NewRegistry().WithSpans(obs.NewSpanBuffer(4096))
}

func TestTCPClusterTracedEndToEnd(t *testing.T) {
	const nodes, txns = 4, 8
	tc := startTCP(t, testcluster.Options{Nodes: nodes, Obs: spanRings})
	tc.Load([]proto.ObjectCopy{
		{ID: "x", Version: 1, Val: proto.Int64(0)},
		{ID: "y", Version: 1, Val: proto.Int64(0)},
	})

	clientReg := obs.NewRegistry().WithSpans(obs.NewSpanBuffer(4096))
	rt, err := core.NewRuntime(core.Config{
		Node:      0,
		Transport: tc.Transport,
		Quorums:   core.TreeQuorums{Tree: tc.Tree},
		Mode:      core.Closed,
		Obs:       clientReg,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for i := 0; i < txns; i++ {
		err := rt.Atomic(ctx, func(tx *core.Txn) error {
			v, err := tx.Read("y")
			if err != nil {
				return err
			}
			return tx.Nested(func(ct *core.Txn) error {
				return ct.Write("y", v.(proto.Int64)+1)
			})
		})
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}

	// Collect every node's spans over the wire — the same TraceDump path
	// qr-node -trace-out uses — and merge with the client's own ring.
	merged := qrdtm.CollectTrace(ctx, tc.Transport, 0, tc.Nodes(), clientReg.Spans().Spans())
	if len(merged) == 0 {
		t.Fatal("no spans collected")
	}

	// The causal links must stitch across the process boundary: serve spans
	// on at least two distinct replicas whose parents are client-side spans.
	byID := make(map[uint64]proto.Span, len(merged))
	for _, s := range merged {
		byID[s.ID] = s
	}
	serveNodes := map[proto.NodeID]bool{}
	roots := 0
	for _, s := range merged {
		switch s.Kind {
		case proto.SpanRoot:
			roots++
		case proto.SpanServeRead, proto.SpanServePrepare, proto.SpanServeDecide:
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("serve span %016x on node %v has dangling parent %016x", s.ID, s.Node, s.Parent)
			}
			if p.Node != 0 {
				t.Fatalf("serve span parent on node %v, want client node 0", p.Node)
			}
			serveNodes[s.Node] = true
		}
	}
	if roots != txns {
		t.Fatalf("client root spans = %d, want %d", roots, txns)
	}
	if len(serveNodes) < 2 {
		t.Fatalf("serve spans from %d nodes, want >= 2 (got %v)", len(serveNodes), serveNodes)
	}

	// The merged timeline passes the protocol checker...
	check := qrdtm.CheckTrace(merged)
	if err := check.Err(); err != nil {
		t.Fatal(err)
	}
	if check.Traces == 0 {
		t.Fatalf("checker saw no complete traces: %+v", check)
	}

	// ...and renders as loadable Chrome trace-event JSON with one process
	// (track) per node.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, merged); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
		}
	}
	if len(pids) < 3 {
		t.Fatalf("chrome trace has %d node tracks, want >= 3", len(pids))
	}

	// A deliberately corrupted trace — a committed version regressed on the
	// wire record — must fail the checker and name the offending span chain.
	corrupted := append([]proto.Span(nil), merged...)
	tampered := false
	for i := range corrupted {
		if corrupted[i].Kind == proto.SpanServeRead && corrupted[i].OK && corrupted[i].Version > 1 {
			corrupted[i].Version = 0
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("found no successful versioned serve-read to corrupt")
	}
	bad := qrdtm.CheckTrace(corrupted)
	if len(bad.Violations) == 0 {
		t.Fatal("checker accepted a corrupted trace")
	}
	msg := bad.Violations[0].String()
	if len(bad.Violations[0].Chain) == 0 {
		t.Fatalf("violation has no span chain: %s", msg)
	}
}

// TestTCPCheckpointedCommitTraced pins that QR-CHK commits are observable
// exactly like flat/closed ones: the commit stamps the root span with the
// committed attempt's id — the id the attempt's checkpoint spans carry — so
// obs.CheckTrace and abort attribution treat Checkpoint-mode transactions
// identically to Atomic's.
func TestTCPCheckpointedCommitTraced(t *testing.T) {
	const nodes, txns = 4, 4
	tc := startTCP(t, testcluster.Options{Nodes: nodes, Obs: spanRings})
	tc.Load([]proto.ObjectCopy{
		{ID: "x", Version: 1, Val: proto.Int64(0)},
		{ID: "y", Version: 1, Val: proto.Int64(0)},
	})

	clientReg := obs.NewRegistry().WithSpans(obs.NewSpanBuffer(4096))
	rt, err := core.NewRuntime(core.Config{
		Node:            0,
		Transport:       tc.Transport,
		Quorums:         core.TreeQuorums{Tree: tc.Tree},
		Mode:            core.Checkpoint,
		CheckpointEvery: 1,
		Obs:             clientReg,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	bump := func(id proto.ObjectID) core.Step {
		return func(tx *core.Txn, _ core.State) error {
			v, err := tx.Read(id)
			if err != nil {
				return err
			}
			return tx.Write(id, v.(proto.Int64)+1)
		}
	}
	steps := []core.Step{bump("x"), bump("y")}
	for i := 0; i < txns; i++ {
		if _, err := rt.AtomicSteps(ctx, core.NoState{}, steps); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}

	// Root spans carry the committed txn id, and that id is the attempt the
	// same trace's checkpoints were taken in.
	spans := clientReg.Spans().Spans()
	rootTxns := map[uint64]uint64{} // txn -> trace
	chkTxns := map[[2]uint64]bool{} // (trace, txn) of each checkpoint span
	for _, s := range spans {
		switch s.Kind {
		case proto.SpanRoot:
			if !s.OK || s.Txn == 0 {
				t.Fatalf("root span not stamped: OK=%v Txn=%d", s.OK, s.Txn)
			}
			rootTxns[uint64(s.Txn)] = s.Trace
		case proto.SpanCheckpoint:
			chkTxns[[2]uint64{s.Trace, uint64(s.Txn)}] = true
		}
	}
	if len(rootTxns) != txns {
		t.Fatalf("stamped root spans for %d distinct txns, want %d", len(rootTxns), txns)
	}
	for txn, trace := range rootTxns {
		if !chkTxns[[2]uint64{trace, txn}] {
			t.Fatalf("root span txn %d has no checkpoint span of that txn in its trace", txn)
		}
	}

	// The merged timeline — checkpoint spans included — passes the checker.
	merged := qrdtm.CollectTrace(ctx, tc.Transport, 0, tc.Nodes(), spans)
	check := qrdtm.CheckTrace(merged)
	if err := check.Err(); err != nil {
		t.Fatal(err)
	}
	if check.Traces == 0 {
		t.Fatal("checker saw no complete traces")
	}
}

// TestTCPTraceContextOnWire pins the wire behavior: a request carrying a
// trace context round-trips it through the codec, and an untraced request
// arrives with a zero context (one presence byte when tracing is off).
func TestTCPTraceContextOnWire(t *testing.T) {
	var got []proto.TraceContext
	handler := func(_ proto.NodeID, req any) any {
		if r, ok := req.(proto.ReadReq); ok {
			got = append(got, r.TC)
		}
		return proto.ReadRep{OK: true}
	}
	srv, err := cluster.ListenTCP(1, "127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	trans := cluster.NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	defer trans.Close()

	ctx := context.Background()
	tcIn := proto.TraceContext{Trace: 7, Span: 8, Parent: 9}
	if _, err := trans.Call(ctx, 0, 1, proto.ReadReq{Obj: "a", TC: tcIn}); err != nil {
		t.Fatal(err)
	}
	if _, err := trans.Call(ctx, 0, 1, proto.ReadReq{Obj: "a"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("handler saw %d reads", len(got))
	}
	if got[0] != tcIn {
		t.Fatalf("traced request context = %+v, want %+v", got[0], tcIn)
	}
	if got[1].Valid() || got[1] != (proto.TraceContext{}) {
		t.Fatalf("untraced request context = %+v, want zero", got[1])
	}
}

// TestTCPPeerCounts pins the health inputs: after successful calls every
// addressed peer counts up; after a peer dies it counts down.
func TestTCPPeerCounts(t *testing.T) {
	tc := startTCP(t, testcluster.Options{Nodes: 3, Obs: spanRings})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := tc.Transport.Call(ctx, 0, proto.NodeID(i), proto.ReadReq{Txn: proto.TxnID(i + 1), Obj: "nope"}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	up, down := tc.Transport.PeerCounts()
	if up != 3 || down != 0 {
		t.Fatalf("peer counts = %d up / %d down, want 3/0", up, down)
	}
	if err := tc.Crash(2); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Transport.Call(ctx, 0, 2, proto.ReadReq{Obj: "nope"}); err == nil {
		t.Fatal("call to dead peer succeeded")
	}
	up, down = tc.Transport.PeerCounts()
	if up != 2 || down != 1 {
		t.Fatalf("peer counts after kill = %d up / %d down, want 2/1", up, down)
	}
}
