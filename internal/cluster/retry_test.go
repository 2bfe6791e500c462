package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm/internal/proto"
)

// scriptedTransport returns the scripted outcomes in order, then succeeds.
type scriptedTransport struct {
	script []error
	calls  atomic.Int64
	block  time.Duration // per-call blocking time (for timeout tests)
}

func (s *scriptedTransport) Call(ctx context.Context, _, _ proto.NodeID, req any) (any, error) {
	n := int(s.calls.Add(1)) - 1
	if s.block > 0 {
		if err := sleepCtx(ctx, s.block); err != nil {
			return nil, err
		}
	}
	if n < len(s.script) && s.script[n] != nil {
		return nil, s.script[n]
	}
	return req, nil
}

func transientErr() error {
	return errors.Join(ErrNodeDown, ErrTransient, errors.New("connection reset"))
}

func TestRetryMasksTransientFaults(t *testing.T) {
	inner := &scriptedTransport{script: []error{transientErr(), transientErr()}}
	rt := NewRetryTransport(inner, RetryPolicy{
		MaxAttempts: 4, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	resp, err := rt.Call(context.Background(), 0, 1, "req")
	if err != nil {
		t.Fatalf("retry should have masked the transient faults: %v", err)
	}
	if resp != "req" {
		t.Fatalf("resp = %v", resp)
	}
	if got := rt.Stats().Retries; got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
}

func TestRetryBudgetExhaustionIsNodeDown(t *testing.T) {
	inner := &scriptedTransport{script: []error{
		transientErr(), transientErr(), transientErr(), transientErr(), transientErr(),
	}}
	rt := NewRetryTransport(inner, RetryPolicy{
		MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	_, err := rt.Call(context.Background(), 0, 1, "req")
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("exhausted budget must yield ErrNodeDown, got %v", err)
	}
	if got := inner.calls.Load(); got != 3 {
		t.Fatalf("inner calls = %d, want 3 (the budget)", got)
	}
}

func TestRetryDoesNotRetryGenuineNodeDown(t *testing.T) {
	// MemTransport-style crash-stop failure: ErrNodeDown without the
	// transient tag is definitive.
	inner := &scriptedTransport{script: []error{ErrNodeDown, nil}}
	rt := NewRetryTransport(inner, RetryPolicy{MaxAttempts: 4})
	_, err := rt.Call(context.Background(), 0, 1, "req")
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v", err)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("genuine ErrNodeDown was retried (%d calls)", got)
	}
}

func TestRetryDoesNotRetryApplicationErrors(t *testing.T) {
	appErr := fmt.Errorf("application rejected the request")
	inner := &scriptedTransport{script: []error{appErr}}
	rt := NewRetryTransport(inner, RetryPolicy{MaxAttempts: 4})
	_, err := rt.Call(context.Background(), 0, 1, "req")
	if !errors.Is(err, appErr) || errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v", err)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("application error was retried (%d calls)", got)
	}
}

func TestRetryPerCallTimeout(t *testing.T) {
	// The inner transport blocks far longer than the per-call timeout on
	// every attempt; the retry layer must cut each attempt short, count the
	// timeouts, and eventually declare the node down.
	inner := &scriptedTransport{block: time.Second, script: []error{
		transientErr(), transientErr(), transientErr(),
	}}
	rt := NewRetryTransport(inner, RetryPolicy{
		MaxAttempts: 2, CallTimeout: 20 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	start := time.Now()
	_, err := rt.Call(context.Background(), 0, 1, "req")
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown after timeouts", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("per-call timeout not enforced (took %v)", el)
	}
	st := rt.Stats()
	if st.Timeouts != 2 {
		t.Fatalf("Timeouts = %d, want 2", st.Timeouts)
	}
}

func TestRetryRespectsParentContext(t *testing.T) {
	inner := &scriptedTransport{block: time.Second}
	rt := NewRetryTransport(inner, RetryPolicy{MaxAttempts: 10})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rt.Call(ctx, 0, 1, "req")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the parent's DeadlineExceeded", err)
	}
	if errors.Is(err, ErrNodeDown) {
		t.Fatal("parent cancellation misclassified as node down")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("parent context not honoured (took %v)", el)
	}
}

func TestRetryStatsMergeInner(t *testing.T) {
	mem := NewMemTransport()
	mem.Register(1, echoHandler)
	rt := NewRetryTransport(mem, RetryPolicy{MaxAttempts: 2})
	if _, err := rt.Call(context.Background(), 0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Calls != 1 || st.Messages != 2 {
		t.Fatalf("inner stats not merged: %+v", st)
	}
}

// End-to-end over TCP: kill the server, let retries run against the refused
// dials, restart on the same address, and the in-flight call succeeds.
func TestRetryOverTCPServerRestart(t *testing.T) {
	srv, err := ListenTCP(1, "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	tcp := NewTCPTransport(map[proto.NodeID]string{1: addr})
	defer tcp.Close()
	rt := NewRetryTransport(tcp, RetryPolicy{
		MaxAttempts: 10, BackoffBase: 10 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	})
	if _, err := rt.Call(context.Background(), 0, 1, ping(1)); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()

	restarted := make(chan *TCPServer, 1)
	go func() {
		time.Sleep(80 * time.Millisecond)
		s2, err := ListenTCP(1, addr, echoHandler)
		if err != nil {
			t.Errorf("restart: %v", err)
			restarted <- nil
			return
		}
		restarted <- s2
	}()
	resp, err := rt.Call(context.Background(), 0, 1, ping(2))
	if err != nil {
		t.Fatalf("call across the restart window failed: %v", err)
	}
	if pingN(resp) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if st := rt.Stats(); st.Retries == 0 {
		t.Fatal("expected retries across the restart window")
	}
	if s2 := <-restarted; s2 != nil {
		_ = s2.Close()
	}
}
