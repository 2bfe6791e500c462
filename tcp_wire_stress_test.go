// Pipelined-wire stress over real TCP under injected faults: many clients
// drive the full transaction engine through FaultTransport (drops,
// duplicate delivery, connection kills) on the multiplexed binary protocol,
// and the run must stay correct by two independent oracles — balance
// conservation resolved through a read quorum, and the trace-driven
// protocol checker over the merged span timeline.
package qrdtm_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"qrdtm"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/testcluster"
)

func TestTCPWireFaultStressLinearizable(t *testing.T) {
	const (
		// 13 nodes is the paper's full tree (height-2 ternary): quorum
		// intersection does real work instead of degenerating to "almost
		// everyone".
		nodes    = 13
		clients  = 6
		txnsPer  = 10
		accounts = 6
	)
	tc := startTCP(t, testcluster.Options{Nodes: nodes, Obs: spanRings})
	var copies []proto.ObjectCopy
	for i := 0; i < accounts; i++ {
		copies = append(copies, proto.ObjectCopy{
			ID: proto.ObjectID(fmt.Sprintf("acct/%d", i)), Version: 1, Val: proto.Int64(100),
		})
	}
	tc.Load(copies)

	ft := cluster.NewFaultTransport(tc.Transport, 0xD15EA5E)
	ft.SetDropRate(0.01)
	ft.SetDuplicateRate(0.01)
	trans := cluster.NewRetryTransport(ft, cluster.RetryPolicy{
		MaxAttempts: 20,
		CallTimeout: 2 * time.Second,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})

	// Sever the multiplexed connections continuously while transactions are
	// in flight: every kill fails the pipelined calls riding them, and the
	// transport's stale-connection redial plus the retry layer must absorb
	// it all.
	killerDone := make(chan struct{})
	var killerWG sync.WaitGroup
	killerWG.Add(1)
	go func() {
		defer killerWG.Done()
		for {
			select {
			case <-killerDone:
				return
			case <-time.After(50 * time.Millisecond):
				ft.KillConnections()
			}
		}
	}()

	// One shared IDGen: transaction ids must be unique cluster-wide — the
	// replicas key lock and version-guard state by TxnID, so two clients
	// minting from separate generators would collide and corrupt each other.
	ids := core.NewIDGen()
	clientRegs := make([]*obs.Registry, clients)
	auditors := make([]*obs.Auditor, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		// Default ring size on purpose: the streaming auditor must keep up
		// with the live span stream without an oversized buffer, and report
		// zero gap spans at the end.
		clientRegs[c] = obs.NewRegistry().WithSpans(obs.NewSpanBuffer(0))
		auditors[c] = obs.NewAuditor(clientRegs[c], obs.AuditorConfig{Interval: 20 * time.Millisecond})
		auditors[c].Start()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rt, err := core.NewRuntime(core.Config{
				Node:      proto.NodeID(c % nodes),
				Transport: trans,
				Quorums:   core.TreeQuorums{Tree: tc.Tree},
				Mode:      core.Closed,
				IDs:       ids,
				Obs:       clientRegs[c],
			})
			if err != nil {
				t.Errorf("client %d runtime: %v", c, err)
				return
			}
			for i := 0; i < txnsPer; i++ {
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
					t.Errorf("client %d txn %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(killerDone)
	killerWG.Wait()
	if t.Failed() {
		return
	}
	if f := ft.Faults(); f.Dropped == 0 && f.Duplicated == 0 {
		t.Fatalf("fault injection never fired: %+v", f)
	}

	// Oracle 0: the always-on streaming auditors that watched each client's
	// span stream DURING the run (not post-hoc) saw zero invariant
	// violations and missed zero spans to ring overwrites.
	var audited uint64
	for c, a := range auditors {
		a.Stop()
		s := a.Stats()
		if s.Violations != 0 {
			t.Errorf("client %d streaming auditor: %d violations (last: %s)", c, s.Violations, s.LastViolation)
		}
		if s.GapSpans != 0 {
			t.Errorf("client %d streaming auditor: audit incomplete, %d spans lost to ring overwrites", c, s.GapSpans)
		}
		audited += s.Traces
	}
	if audited == 0 {
		t.Fatal("streaming auditors audited no traces")
	}

	// Oracle 1: conservation — the total balance, resolved through a read
	// quorum (highest version per object), must be exactly the initial sum.
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
		t.Fatalf("conservation violated under faults: total = %d, want %d", total, accounts*100)
	}

	// Oracle 2: the merged trace — every client's spans plus every replica's
	// serve spans, collected over the (un-faulted) wire — passes the
	// protocol checker: no stale read, no version regression, no
	// mis-routed abort slipped through the drop/dup/kill chaos.
	var clientSpans []proto.Span
	for _, reg := range clientRegs {
		clientSpans = append(clientSpans, reg.Spans().Spans()...)
	}
	merged := qrdtm.CollectTrace(context.Background(), tc.Transport, 0, tc.Nodes(), clientSpans)
	check := qrdtm.CheckTrace(merged)
	if err := check.Err(); err != nil {
		t.Fatal(err)
	}
	if check.Traces == 0 {
		t.Fatalf("checker saw no complete traces: %+v", check)
	}
}
