package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm/internal/proto"
)

func echoHandler(from proto.NodeID, req any) any {
	return req
}

func TestMemTransportCallRoundTrip(t *testing.T) {
	tr := NewMemTransport()
	tr.Register(1, func(from proto.NodeID, req any) any {
		if from != 0 {
			t.Errorf("from = %v", from)
		}
		return req.(int) + 1
	})
	resp, err := tr.Call(context.Background(), 0, 1, 41)
	if err != nil {
		t.Fatal(err)
	}
	if resp.(int) != 42 {
		t.Fatalf("resp = %v", resp)
	}
	st := tr.Stats()
	if st.Calls != 1 || st.Messages != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemTransportUnknownNode(t *testing.T) {
	tr := NewMemTransport()
	if _, err := tr.Call(context.Background(), 0, 9, "x"); err == nil {
		t.Fatal("expected error for unregistered node")
	}
}

func TestMemTransportFailureAndRecovery(t *testing.T) {
	tr := NewMemTransport(WithFailTimeout(0))
	tr.Register(1, echoHandler)
	tr.Fail(1)
	if !tr.Down(1) {
		t.Fatal("node should be down")
	}
	_, err := tr.Call(context.Background(), 0, 1, "x")
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if tr.Stats().Failed != 1 {
		t.Fatalf("failed counter = %d", tr.Stats().Failed)
	}
	tr.Recover(1)
	if _, err := tr.Call(context.Background(), 0, 1, "x"); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestMemTransportContextCancel(t *testing.T) {
	tr := NewMemTransport(WithLatency(UniformLatency{Base: time.Second}))
	tr.Register(1, echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Call(ctx, 0, 1, "x")
	if err == nil {
		t.Fatal("expected context error")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("cancellation did not interrupt the latency sleep")
	}
}

func TestMulticastCollectsAllReplies(t *testing.T) {
	tr := NewMemTransport()
	for i := 0; i < 5; i++ {
		i := i
		tr.Register(proto.NodeID(i), func(_ proto.NodeID, _ any) any { return i })
	}
	tr.Fail(3)
	replies := Multicast(context.Background(), tr, 0, []proto.NodeID{0, 1, 2, 3, 4}, "ping")
	if len(replies) != 5 {
		t.Fatalf("replies = %d", len(replies))
	}
	for _, r := range replies {
		if r.Node == 3 {
			if !errors.Is(r.Err, ErrNodeDown) {
				t.Fatalf("node 3 err = %v", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Resp.(int) != int(r.Node) {
			t.Fatalf("reply %+v", r)
		}
	}
}

// Regression: a call to a down node pays only the failure-detection timeout
// (not request latency + failTimeout, which double-charged detection) and
// counts exactly one message — the lost request; there is no reply leg.
func TestMemTransportDownAccounting(t *testing.T) {
	tr := NewMemTransport(
		WithLatency(UniformLatency{Base: 200 * time.Millisecond}),
		WithFailTimeout(10*time.Millisecond),
	)
	tr.Register(1, echoHandler)
	tr.Fail(1)
	start := time.Now()
	_, err := tr.Call(context.Background(), 0, 1, "x")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v", err)
	}
	if elapsed >= 150*time.Millisecond {
		t.Fatalf("down call took %v: latency charged on top of failTimeout", elapsed)
	}
	st := tr.Stats()
	if st.Messages != 1 {
		t.Fatalf("failed call counted %d messages, want 1 (the lost request)", st.Messages)
	}
	if st.Calls != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// mixedTransport scripts a different outcome per destination node.
type mixedTransport struct{}

func (mixedTransport) Call(ctx context.Context, _, to proto.NodeID, req any) (any, error) {
	switch to {
	case 2:
		return nil, ErrNodeDown
	case 3:
		<-ctx.Done() // blocks until the multicast's context is cancelled
		return nil, ctx.Err()
	default:
		return req, nil
	}
}

// Multicast under mixed outcomes: some legs ErrNodeDown, some cancelled,
// some OK — every leg must report its own outcome in order.
func TestMulticastMixedOutcomes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	replies := Multicast(ctx, mixedTransport{}, 0, []proto.NodeID{1, 2, 3, 4}, "ping")
	if len(replies) != 4 {
		t.Fatalf("replies = %d", len(replies))
	}
	byNode := map[proto.NodeID]Reply{}
	for _, r := range replies {
		byNode[r.Node] = r
	}
	for _, n := range []proto.NodeID{1, 4} {
		if r := byNode[n]; r.Err != nil || r.Resp != "ping" {
			t.Fatalf("node %v: %+v", n, r)
		}
	}
	if r := byNode[2]; !errors.Is(r.Err, ErrNodeDown) {
		t.Fatalf("node 2 err = %v, want ErrNodeDown", r.Err)
	}
	if r := byNode[3]; !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("node 3 err = %v, want context.Canceled", r.Err)
	}
	if r := byNode[3]; errors.Is(r.Err, ErrNodeDown) {
		t.Fatal("cancelled leg must not read as a node crash")
	}
}

func TestTxTimeSerializesSender(t *testing.T) {
	// With sender transmission time, a 5-leg multicast must take ~5 slots,
	// while 5 parallel unicasts from distinct senders overlap.
	const slot = 5 * time.Millisecond
	tr := NewMemTransport(WithTxTime(slot))
	for i := 0; i < 6; i++ {
		tr.Register(proto.NodeID(i), echoHandler)
	}
	start := time.Now()
	Multicast(context.Background(), tr, 0, []proto.NodeID{1, 2, 3, 4, 5}, "x")
	multi := time.Since(start)
	if multi < 4*slot {
		t.Fatalf("multicast took %v, want >= %v (legs must serialize)", multi, 4*slot)
	}

	start = time.Now()
	done := make(chan struct{}, 5)
	for i := 1; i <= 5; i++ {
		go func(i int) {
			_, _ = tr.Call(context.Background(), proto.NodeID(i), 0, "x")
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 5; i++ {
		<-done
	}
	if par := time.Since(start); par > 4*slot {
		t.Fatalf("distinct senders took %v, want parallel (< %v)", par, 4*slot)
	}
}

func TestServiceTimeSerializesReplica(t *testing.T) {
	const slot = 5 * time.Millisecond
	tr := NewMemTransport(WithServiceTime(slot))
	var concurrent, maxConcurrent atomic.Int32
	tr.Register(0, func(_ proto.NodeID, req any) any {
		c := concurrent.Add(1)
		for {
			m := maxConcurrent.Load()
			if c <= m || maxConcurrent.CompareAndSwap(m, c) {
				break
			}
		}
		concurrent.Add(-1)
		return req
	})
	done := make(chan struct{}, 4)
	start := time.Now()
	for i := 1; i <= 4; i++ {
		go func(i int) {
			_, _ = tr.Call(context.Background(), proto.NodeID(i), 0, "x")
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if el := time.Since(start); el < 3*slot {
		t.Fatalf("4 requests served in %v, want >= %v (queueing)", el, 3*slot)
	}
	if maxConcurrent.Load() > 1 {
		t.Fatalf("handler ran %d-way concurrent under service serialization", maxConcurrent.Load())
	}
}

func TestResetStats(t *testing.T) {
	tr := NewMemTransport()
	tr.Register(0, echoHandler)
	_, _ = tr.Call(context.Background(), 1, 0, "x")
	tr.ResetStats()
	if st := tr.Stats(); st.Calls != 0 || st.Messages != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestLatencyModels(t *testing.T) {
	if d := (ZeroLatency{}).OneWay(0, 1); d != 0 {
		t.Fatalf("ZeroLatency = %v", d)
	}
	u := UniformLatency{Base: time.Millisecond, Jitter: time.Millisecond}
	for i := 0; i < 50; i++ {
		d := u.OneWay(0, 1)
		if d < time.Millisecond || d >= 2*time.Millisecond {
			t.Fatalf("UniformLatency out of range: %v", d)
		}
	}
}
