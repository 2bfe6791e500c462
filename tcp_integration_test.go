// End-to-end integration over real TCP: a multi-listener QR-DTM cluster on
// localhost, exercised by the full transaction engine (reads with Rqv,
// closed nesting, two-phase commit) — evidence the protocols are not bound
// to the in-memory simulator.
package qrdtm_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/testcluster"
)

// startTCP boots a loopback cluster that the test's cleanup tears down.
func startTCP(t *testing.T, o testcluster.Options) *testcluster.Cluster {
	t.Helper()
	c, err := testcluster.Start(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestTCPClusterEndToEnd(t *testing.T) {
	tc := startTCP(t, testcluster.Options{Nodes: 4})
	tc.Load([]proto.ObjectCopy{
		{ID: "x", Version: 1, Val: proto.Int64(1)},
		{ID: "y", Version: 1, Val: proto.Int64(2)},
	})
	ids := core.NewIDGen()
	metrics := &core.Metrics{}
	rt, err := core.NewRuntime(core.Config{
		Node:      0,
		Transport: tc.Transport,
		Quorums:   core.TreeQuorums{Tree: tc.Tree},
		Mode:      core.Closed,
		IDs:       ids,
		Metrics:   metrics,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	err = rt.Atomic(ctx, func(tx *core.Txn) error {
		xv, err := tx.Read("x")
		if err != nil {
			return err
		}
		return tx.Nested(func(ct *core.Txn) error {
			yv, err := ct.Read("y")
			if err != nil {
				return err
			}
			return ct.Write("y", proto.Int64(int64(xv.(proto.Int64))+int64(yv.(proto.Int64))))
		})
	})
	if err != nil {
		t.Fatalf("Atomic over TCP: %v", err)
	}

	// Every write-quorum member must hold the committed value.
	wq, err := tc.Tree.WriteQuorum(quorum.AllAlive)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range wq {
		got, ok := tc.Replicas[n].Store().Get("y")
		if !ok || got.Version != 2 || got.Val.(proto.Int64) != 3 {
			t.Fatalf("replica %v: %+v ok=%v", n, got, ok)
		}
	}
	if metrics.CTCommits.Load() != 1 {
		t.Fatalf("CT commits = %d", metrics.CTCommits.Load())
	}
}

func TestTCPClusterConcurrentTransfers(t *testing.T) {
	const accounts, clients, txns = 8, 3, 15
	tc := startTCP(t, testcluster.Options{Nodes: 4})
	var copies []proto.ObjectCopy
	for i := 0; i < accounts; i++ {
		copies = append(copies, proto.ObjectCopy{
			ID: proto.ObjectID(fmt.Sprintf("acct/%d", i)), Version: 1, Val: proto.Int64(100),
		})
	}
	tc.Load(copies)

	ids := core.NewIDGen()
	metrics := &core.Metrics{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rt, err := core.NewRuntime(core.Config{
				Node:      proto.NodeID(c % 4),
				Transport: tc.Transport,
				Quorums:   core.TreeQuorums{Tree: tc.Tree},
				Mode:      core.Flat,
				IDs:       ids,
				Metrics:   metrics,
			})
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			for i := 0; i < txns; i++ {
				from := proto.ObjectID(fmt.Sprintf("acct/%d", (c*3+i)%accounts))
				to := proto.ObjectID(fmt.Sprintf("acct/%d", (c*5+i+1)%accounts))
				if from == to {
					continue
				}
				err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
					fv, err := tx.Read(from)
					if err != nil {
						return err
					}
					tv, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, proto.Int64(int64(fv.(proto.Int64))-1)); err != nil {
						return err
					}
					return tx.Write(to, proto.Int64(int64(tv.(proto.Int64))+1))
				})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// Conservation, resolved through a read quorum.
	rq, err := tc.Tree.ReadQuorum(quorum.AllAlive)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := 0; i < accounts; i++ {
		var best proto.ObjectCopy
		for _, n := range rq {
			cp, ok := tc.Replicas[n].Store().Get(proto.ObjectID(fmt.Sprintf("acct/%d", i)))
			if ok && cp.Version >= best.Version {
				best = cp
			}
		}
		total += int64(best.Val.(proto.Int64))
	}
	if total != accounts*100 {
		t.Fatalf("total = %d, want %d", total, accounts*100)
	}
}

func TestTCPClusterCheckpointedSteps(t *testing.T) {
	tc := startTCP(t, testcluster.Options{Nodes: 4})
	tc.Load([]proto.ObjectCopy{
		{ID: "a", Version: 1, Val: proto.Int64(5)},
		{ID: "b", Version: 1, Val: proto.Int64(6)},
	})
	rt, err := core.NewRuntime(core.Config{
		Node:      1,
		Transport: tc.Transport,
		Quorums:   core.TreeQuorums{Tree: tc.Tree},
		Mode:      core.Checkpoint, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.AtomicSteps(context.Background(), &tcpState{}, []core.Step{
		func(tx *core.Txn, s core.State) error {
			v, err := tx.Read("a")
			if err != nil {
				return err
			}
			s.(*tcpState).A = int64(v.(proto.Int64))
			return nil
		},
		func(tx *core.Txn, s core.State) error {
			v, err := tx.Read("b")
			if err != nil {
				return err
			}
			s.(*tcpState).B = int64(v.(proto.Int64))
			return tx.Write("sum", proto.Int64(s.(*tcpState).A+s.(*tcpState).B))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*tcpState); got.A != 5 || got.B != 6 {
		t.Fatalf("state = %+v", got)
	}
}

type tcpState struct{ A, B int64 }

func (s *tcpState) CloneState() core.State { out := *s; return &out }

// restartOnFailure restarts a crashed node from the first call to it that
// fails, so the node comes back while that call's transaction is in flight.
// The restart's error is sent on done.
type restartOnFailure struct {
	cluster.Transport
	node    proto.NodeID
	restart func() error
	once    sync.Once
	done    chan error // buffered 1: the once sends without waiting
}

func (r *restartOnFailure) Call(ctx context.Context, from, to proto.NodeID, req any) (any, error) {
	resp, err := r.Transport.Call(ctx, from, to, req)
	if err != nil && to == r.node {
		r.once.Do(func() { r.done <- r.restart() })
	}
	return resp, err
}

// TestTCPReplicaRestartWithRetry is the acceptance scenario for the cluster
// robustness layer: a write-quorum replica is killed and restarted mid-
// workload. With RetryTransport masking the transient connection faults, the
// run commits every transaction with zero spurious ErrNodeDown-driven full
// aborts and zero quorum reconfigurations during the restart window, and the
// transport stats report the retries that absorbed the outage.
func TestTCPReplicaRestartWithRetry(t *testing.T) {
	const txns = 30
	tc := startTCP(t, testcluster.Options{Nodes: 4})
	tc.Load([]proto.ObjectCopy{{ID: "ctr", Version: 1, Val: proto.Int64(0)}})

	// Node 1 is a member of the canonical write quorum for 4 nodes; its
	// outage stalls every prepare/decide round until retries ride it out.
	victim := proto.NodeID(1)
	restarter := &restartOnFailure{
		Transport: tc.Transport,
		node:      victim,
		restart:   func() error { return tc.Restart(victim) },
		done:      make(chan error, 1),
	}
	trans := cluster.NewRetryTransport(restarter, cluster.RetryPolicy{
		MaxAttempts: 10,
		CallTimeout: time.Second,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
	})
	metrics := &core.Metrics{}
	reg := obs.NewRegistry()
	rt, err := core.NewRuntime(core.Config{
		Node:      0,
		Transport: trans,
		Quorums:   core.TreeQuorums{Tree: tc.Tree},
		Mode:      core.Closed,
		Metrics:   metrics,
		Obs:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for i := 0; i < txns; i++ {
		if i == 5 {
			// Kill the victim between transactions. The next transaction's
			// first call to it fails and restarts it, so that transaction
			// and the rest must ride out the refused dial and the reset
			// pooled connection.
			if err := tc.Crash(victim); err != nil {
				t.Fatalf("crashing victim: %v", err)
			}
		}
		err := rt.Atomic(ctx, func(tx *core.Txn) error {
			v, err := tx.Read("ctr")
			if err != nil {
				return err
			}
			return tx.Write("ctr", v.(proto.Int64)+1)
		})
		if err != nil {
			t.Fatalf("txn %d failed across the restart window: %v", i, err)
		}
	}
	select {
	case err := <-restarter.done:
		if err != nil {
			t.Fatalf("restarting victim: %v", err)
		}
	default:
		t.Fatal("no call to the crashed victim failed, so it was never restarted")
	}

	if got := metrics.Commits.Load(); got != txns {
		t.Fatalf("commits = %d, want %d", got, txns)
	}
	// A single client has no contention: any full abort would be a spurious
	// ErrNodeDown-driven one, and any quorum refresh means the restart was
	// treated as a crash instead of a transient outage.
	if got := metrics.RootAborts.Load(); got != 0 {
		t.Fatalf("spurious full aborts during restart window: %d", got)
	}
	if got := metrics.QuorumRefreshes.Load(); got != 0 {
		t.Fatalf("quorum refreshes during restart window: %d", got)
	}
	if st := trans.Stats(); st.Retries == 0 {
		t.Fatal("expected transport retries to have absorbed the outage")
	}

	// The committed counter must equal the transaction count on every
	// write-quorum member, the restarted victim included.
	wq, err := tc.Tree.WriteQuorum(quorum.AllAlive)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range wq {
		got, ok := tc.Replicas[n].Store().Get("ctr")
		if !ok || got.Val.(proto.Int64) != txns {
			t.Fatalf("replica %v: ctr = %+v ok=%v, want %d", n, got, ok, txns)
		}
	}

	// The same evidence must be visible from the outside: stand up the admin
	// surface a qr-node client would serve (-admin) and read the restart's
	// footprint back over HTTP.
	admin := obs.NewAdmin().
		Source("transport", func() any { return trans.Stats() }).
		Source("core", func() any { return metrics.Snapshot() }).
		Source("obs", func() any { return reg.Snapshot() })
	addrHTTP, shutdown, err := admin.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	resp, err := http.Get("http://" + addrHTTP + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Transport cluster.Stats `json:"transport"`
		Core      core.MetricsSnapshot
		Obs       obs.Snapshot
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	if doc.Transport.Retries == 0 {
		t.Fatal("/metrics reports zero transport retries after the restart window")
	}
	if doc.Core.Commits != txns {
		t.Fatalf("/metrics core.Commits = %d, want %d", doc.Core.Commits, txns)
	}
	if n := doc.Obs.Sites[obs.SiteTxnLatency.String()].Count; n != txns {
		t.Fatalf("/metrics obs txn_latency count = %d, want %d", n, txns)
	}

	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		r, err := http.Get("http://" + addrHTTP + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, r.StatusCode)
		}
	}
}
