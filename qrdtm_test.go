package qrdtm_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"qrdtm"
	"qrdtm/internal/cluster"
	"qrdtm/internal/dtm"
	"qrdtm/internal/proto"
)

func TestClusterDefaults(t *testing.T) {
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Replicas) != 13 {
		t.Fatalf("default nodes = %d, want 13", len(c.Replicas))
	}
	if c.Tree.Len() != 13 {
		t.Fatalf("tree size = %d", c.Tree.Len())
	}
}

func TestClusterLoadAndReadCommitted(t *testing.T) {
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadKV(map[qrdtm.ObjectID]qrdtm.Value{"k": qrdtm.Int64(7)})
	cp, err := c.ReadCommitted(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != 1 || cp.Val.(qrdtm.Int64) != 7 {
		t.Fatalf("committed = %+v", cp)
	}
}

func TestClusterRuntimeCachedPerNode(t *testing.T) {
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Runtime(2) != c.Runtime(2) {
		t.Fatal("Runtime must be cached per node")
	}
	if c.Runtime(1) == c.Runtime(2) {
		t.Fatal("distinct nodes must get distinct runtimes")
	}
}

func TestClusterFailRecoverCycle(t *testing.T) {
	ctx := context.Background()
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: 13, Mode: qrdtm.Closed})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadKV(map[qrdtm.ObjectID]qrdtm.Value{"n": qrdtm.Int64(0)})
	rt := c.Runtime(5)

	inc := func() error {
		return rt.Atomic(ctx, func(tx *qrdtm.Txn) error {
			v, err := tx.Read("n")
			if err != nil {
				return err
			}
			return tx.Write("n", v.(qrdtm.Int64)+1)
		})
	}

	if err := inc(); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := inc(); err != nil {
		t.Fatalf("increment with root down: %v", err)
	}
	// The crashed root missed the second commit; recovery must sync it.
	if err := c.Recover(ctx, 0); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Replicas[0].Store().Get("n")
	if !ok || got.Val.(qrdtm.Int64) != 2 {
		t.Fatalf("recovered replica state = %+v ok=%v (recovery must state-sync)", got, ok)
	}
	if err := inc(); err != nil {
		t.Fatal(err)
	}
	cp, err := c.ReadCommitted(ctx, "n")
	if err != nil || cp.Val.(qrdtm.Int64) != 3 {
		t.Fatalf("final = %+v err=%v", cp, err)
	}
}

func TestClusterFailTooManyNodes(t *testing.T) {
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Runtime(3) // force a runtime to exist so refresh has something to do
	_ = c.Fail(0)
	_ = c.Fail(1)
	if err := c.Fail(2); err == nil {
		t.Fatal("expected quorum unavailability after losing 3 of 4 nodes")
	}
}

func TestDTMAdapter(t *testing.T) {
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: 4, Mode: qrdtm.Flat})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadKV(map[qrdtm.ObjectID]qrdtm.Value{"a": qrdtm.Int64(1)})
	sys := dtm.FromRuntime(c.Runtime(0))
	if sys.Name() == "" {
		t.Fatal("empty system name")
	}
	err = sys.Atomic(context.Background(), func(tx dtm.Tx) error {
		v, err := tx.Read("a")
		if err != nil {
			return err
		}
		return tx.Write("a", proto.Int64(int64(v.(proto.Int64))*10))
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := c.ReadCommitted(context.Background(), "a")
	if cp.Val.(qrdtm.Int64) != 10 {
		t.Fatalf("a = %v", cp.Val)
	}
}

// TestFailureStormConservation crashes and recovers replicas *while*
// transfer transactions run, then checks that no committed money was lost
// — the end-to-end fault-tolerance claim under the crash-stop model with
// state-sync recovery.
func TestFailureStormConservation(t *testing.T) {
	const accounts, clients, txns, initial = 12, 4, 15, 1000
	ctx := context.Background()
	// Nonzero transmission cost slows transactions enough that crashes and
	// recoveries genuinely interleave with reads, prepares and decides.
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{
		Nodes:      13,
		Mode:       qrdtm.Closed,
		TxTime:     time.Millisecond,
		MaxRetries: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	kv := map[qrdtm.ObjectID]qrdtm.Value{}
	for i := 0; i < accounts; i++ {
		kv[qrdtm.ObjectID(fmt.Sprintf("s/%d", i))] = qrdtm.Int64(initial)
	}
	c.LoadKV(kv)

	var clients_wg sync.WaitGroup
	stop := make(chan struct{})
	injectorDone := make(chan struct{})

	// Failure injector: cycles crash/recover over non-root replicas. The
	// root (node 0) stays up so canonical quorums remain cheap; leaves and
	// mid-tree nodes churn.
	go func() {
		defer close(injectorDone)
		victims := []qrdtm.NodeID{4, 7, 10, 2}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := victims[i%len(victims)]
			if err := c.Fail(v); err != nil {
				continue // quorum would break; skip this round
			}
			time.Sleep(2 * time.Millisecond)
			if err := c.Recover(ctx, v); err != nil {
				t.Errorf("recover %v: %v", v, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for cl := 0; cl < clients; cl++ {
		clients_wg.Add(1)
		go func(cl int) {
			defer clients_wg.Done()
			rt := c.Runtime(qrdtm.NodeID(1 + cl*3%12))
			for i := 0; i < txns; i++ {
				from := qrdtm.ObjectID(fmt.Sprintf("s/%d", (cl*5+i)%accounts))
				to := qrdtm.ObjectID(fmt.Sprintf("s/%d", (cl*7+i+1)%accounts))
				if from == to {
					continue
				}
				err := rt.Atomic(ctx, func(tx *qrdtm.Txn) error {
					fv, err := tx.Read(from)
					if err != nil {
						return err
					}
					tv, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, fv.(qrdtm.Int64)-1); err != nil {
						return err
					}
					return tx.Write(to, tv.(qrdtm.Int64)+1)
				})
				if err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
			}
		}(cl)
	}

	// Let the clients finish under churn, then stop the injector.
	clients_wg.Wait()
	close(stop)
	<-injectorDone

	total := int64(0)
	for i := 0; i < accounts; i++ {
		cp, err := c.ReadCommitted(ctx, qrdtm.ObjectID(fmt.Sprintf("s/%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		total += int64(cp.Val.(qrdtm.Int64))
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (committed writes lost under failures)", total, accounts*initial)
	}
}

// routeSpy records, per calling node, which replicas each read and prepare
// went to.
type routeSpy struct {
	inner cluster.Transport

	mu             sync.Mutex
	reads, prepare map[qrdtm.NodeID]map[qrdtm.NodeID]bool
}

func (s *routeSpy) Call(ctx context.Context, from, to qrdtm.NodeID, req any) (any, error) {
	s.mu.Lock()
	var into map[qrdtm.NodeID]map[qrdtm.NodeID]bool
	switch req.(type) {
	case proto.ReadReq, proto.BatchReadReq:
		into = s.reads
	case proto.PrepareReq:
		into = s.prepare
	}
	if into != nil {
		if into[from] == nil {
			into[from] = map[qrdtm.NodeID]bool{}
		}
		into[from][to] = true
	}
	s.mu.Unlock()
	return s.inner.Call(ctx, from, to, req)
}

// TestSpreadQuorumsAreFigure10s checks that ClusterConfig.SpreadQuorums
// gives every runtime the failure-adaptive read quorum
// (Tree.ReadQuorumSpread keyed by the node) and the canonical write quorum:
// on a 28-node cluster with nodes 0–2 down, each node's reads and prepares
// go exactly there, and the read quorums are not all the same.
func TestSpreadQuorumsAreFigure10s(t *testing.T) {
	spy := &routeSpy{reads: map[qrdtm.NodeID]map[qrdtm.NodeID]bool{}, prepare: map[qrdtm.NodeID]map[qrdtm.NodeID]bool{}}
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{
		Nodes:         28,
		SpreadQuorums: true,
		WrapTransport: func(inner cluster.Transport) cluster.Transport { spy.inner = inner; return spy },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadKV(map[qrdtm.ObjectID]qrdtm.Value{"k": qrdtm.Int64(0)})
	for n := qrdtm.NodeID(0); n < 3; n++ {
		if err := c.Fail(n); err != nil {
			t.Fatal(err)
		}
	}
	alive := func(n qrdtm.NodeID) bool { return !c.Transport.Down(n) }
	wantW, err := c.Tree.WriteQuorum(alive)
	if err != nil {
		t.Fatal(err)
	}
	set := func(m map[qrdtm.NodeID]bool) []qrdtm.NodeID {
		out := make([]qrdtm.NodeID, 0, len(m))
		for n := range m {
			out = append(out, n)
		}
		slices.Sort(out)
		return out
	}
	distinct := map[string]bool{}
	for n := qrdtm.NodeID(3); n < 28; n++ {
		err := c.Runtime(n).Atomic(context.Background(), func(tx *qrdtm.Txn) error {
			v, err := tx.Read("k")
			if err != nil {
				return err
			}
			return tx.Write("k", v.(qrdtm.Int64)+1)
		})
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
		wantR, err := c.Tree.ReadQuorumSpread(alive, int(n))
		if err != nil {
			t.Fatal(err)
		}
		spy.mu.Lock()
		gotR, gotW := set(spy.reads[n]), set(spy.prepare[n])
		spy.mu.Unlock()
		if !slices.Equal(gotR, wantR) {
			t.Errorf("node %d read from %v, want ReadQuorumSpread's %v", n, gotR, wantR)
		}
		if !slices.Equal(gotW, wantW) {
			t.Errorf("node %d prepared at %v, want the canonical write quorum %v", n, gotW, wantW)
		}
		distinct[fmt.Sprint(gotR)] = true
	}
	if len(distinct) < 2 {
		t.Errorf("every node read from %v: nothing spread", distinct)
	}
}
