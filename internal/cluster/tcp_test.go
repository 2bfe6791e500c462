package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qrdtm/internal/proto"
)

// The stub handlers speak a ping/pong pair of proto messages, so stub
// traffic crosses the wire in the binary codec like replica traffic: a ping
// is a LogTailReq whose Max carries a number, its pong a LogTailRep whose
// Next carries that number plus one.
func ping(n int) proto.LogTailReq { return proto.LogTailReq{Max: n} }

// slowPing is ping as a request the server serves off the connection's
// reader (mayWait), for test handlers that block.
func slowPing(n int) proto.DecideReq { return proto.DecideReq{Txn: proto.TxnID(n)} }

func pingN(req any) int {
	if m, ok := req.(proto.DecideReq); ok {
		return int(m.Txn)
	}
	return req.(proto.LogTailReq).Max
}

func pong(req any) proto.LogTailRep { return proto.LogTailRep{Next: uint64(pingN(req) + 1)} }

func pongN(resp any) int { return int(resp.(proto.LogTailRep).Next) }

func startTCPPair(t *testing.T) (*TCPServer, *TCPTransport) {
	t.Helper()
	srv, err := ListenTCP(1, "127.0.0.1:0", func(from proto.NodeID, req any) any {
		switch m := req.(type) {
		case proto.LogTailReq:
			return pong(m)
		case proto.ReadReq:
			return proto.ReadRep{OK: true, Copy: proto.ObjectCopy{ID: m.Obj, Version: 3, Val: proto.Int64(7)}}
		default:
			panic(fmt.Sprintf("unexpected %T", req))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	tr := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	t.Cleanup(tr.Close)
	return srv, tr
}

func TestTCPRoundTrip(t *testing.T) {
	_, tr := startTCPPair(t)
	resp, err := tr.Call(context.Background(), 0, 1, ping(1))
	if err != nil {
		t.Fatal(err)
	}
	if pongN(resp) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if st := tr.Stats(); st.Calls != 1 || st.Messages != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTCPCarriesProtocolMessages(t *testing.T) {
	_, tr := startTCPPair(t)
	resp, err := tr.Call(context.Background(), 0, 1, proto.ReadReq{Txn: 5, Obj: "x"})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.(proto.ReadRep)
	if !rep.OK || rep.Copy.Version != 3 || rep.Copy.Val.(proto.Int64) != 7 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	_, tr := startTCPPair(t)
	for i := 0; i < 20; i++ {
		if _, err := tr.Call(context.Background(), 0, 1, ping(i)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	_, tr := startTCPPair(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := tr.Call(context.Background(), 0, 1, ping(i*100+j))
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if pongN(resp) != i*100+j+1 {
					t.Errorf("wrong response %+v", resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPUnknownPeer(t *testing.T) {
	tr := NewTCPTransport(nil)
	if _, err := tr.Call(context.Background(), 0, 7, ping(0)); err == nil {
		t.Fatal("expected error for unknown peer")
	}
}

func TestTCPDeadPeerIsNodeDown(t *testing.T) {
	srv, tr := startTCPPair(t)
	_ = srv.Close()
	// The existing connection dies, fresh dials are refused; either way
	// the caller sees ErrNodeDown semantics.
	_, err := tr.Call(context.Background(), 0, 1, ping(0))
	if err == nil {
		t.Fatal("expected failure calling a closed server")
	}
}

func TestTCPHandlerPanicIsReportedNotFatal(t *testing.T) {
	srv, err := ListenTCP(2, "127.0.0.1:0", func(_ proto.NodeID, _ any) any {
		panic("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[proto.NodeID]string{2: srv.Addr()})
	defer tr.Close()
	if _, err := tr.Call(context.Background(), 0, 2, ping(0)); err == nil {
		t.Fatal("expected handler panic to surface as an error")
	}
}

// Regression: Close must return even while a client transport holds an idle
// connection — the server closes tracked live connections so the serve
// goroutines (blocked reading a frame) unblock and wg.Wait returns.
func TestTCPServerCloseWithIdleClientConn(t *testing.T) {
	srv, tr := startTCPPair(t)
	// Establish an idle connection and leave it open.
	if _, err := tr.Call(context.Background(), 0, 1, ping(1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("TCPServer.Close hung on an idle client connection")
	}
}

// Regression: a per-call deadline must not leak into the next call made on
// the same connection.
func TestTCPDeadlineClearedBeforePooling(t *testing.T) {
	srv, err := ListenTCP(4, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		if p, ok := req.(proto.LogTailReq); ok && p.Max == 2 {
			time.Sleep(300 * time.Millisecond) // longer than the first call's deadline
		}
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[proto.NodeID]string{4: srv.Addr()})
	defer tr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	if _, err := tr.Call(ctx, 0, 4, ping(1)); err != nil {
		t.Fatalf("first call: %v", err)
	}
	cancel()
	// The second call reuses the connection, has no deadline of its
	// own, and outlives the first call's (already expired) deadline.
	if _, err := tr.Call(context.Background(), 0, 4, ping(2)); err != nil {
		t.Fatalf("second call inherited a stale deadline: %v", err)
	}
}

// A deadline-exceeded call must surface context.DeadlineExceeded, not be
// misclassified as a crashed node.
func TestTCPDeadlineExceededIsNotNodeDown(t *testing.T) {
	srv, err := ListenTCP(5, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		time.Sleep(time.Second)
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[proto.NodeID]string{5: srv.Addr()})
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = tr.Call(ctx, 0, 5, ping(0))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrNodeDown) {
		t.Fatalf("deadline exceeded misclassified as ErrNodeDown: %v", err)
	}
}

// Cancellation with NO deadline set must still unblock the in-flight read.
func TestTCPContextCancelWithoutDeadline(t *testing.T) {
	srv, err := ListenTCP(6, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		time.Sleep(2 * time.Second)
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[proto.NodeID]string{6: srv.Addr()})
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = tr.Call(ctx, 0, 6, ping(0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not unblock the in-flight read")
	}
}

func TestTCPTransientFaultsAreMarked(t *testing.T) {
	srv, tr := startTCPPair(t)
	addr := srv.Addr()
	_ = srv.Close()
	_, err := tr.Call(context.Background(), 0, 1, ping(0))
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("connection fault to %s not marked transient: %v", addr, err)
	}
}

func TestTCPHandlerPanicIsTyped(t *testing.T) {
	srv, err := ListenTCP(7, "127.0.0.1:0", func(_ proto.NodeID, _ any) any {
		panic("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[proto.NodeID]string{7: srv.Addr()})
	defer tr.Close()
	// On the reader and off it: both recover the panic into the reply.
	for _, req := range []any{ping(0), slowPing(0)} {
		_, err = tr.Call(context.Background(), 0, 7, req)
		if !errors.Is(err, ErrRemotePanic) {
			t.Fatalf("%T: err = %v, want ErrRemotePanic identity to survive the wire", req, err)
		}
		if errors.Is(err, ErrTransient) {
			t.Fatalf("%T: handler panic must not be retryable", req)
		}
	}
}

// Exactly the two requests a durable replica answers after a WAL wait are
// served off the reader; reads and admin requests are answered inline.
func TestMayWait(t *testing.T) {
	for _, c := range []struct {
		req  any
		want bool
	}{
		{proto.PrepareReq{}, true},
		{proto.DecideReq{}, true},
		{proto.ReadReq{}, false},
		{proto.BatchReadReq{}, false},
		{proto.LoadReq{}, false},
		{proto.LogTailReq{}, false},
	} {
		if got := mayWait(c.req); got != c.want {
			t.Errorf("mayWait(%T) = %v, want %v", c.req, got, c.want)
		}
	}
}

// Handlers may return error values; sentinel identity must survive the wire
// via the reply frame's error flags.
func TestTCPWireErrorIdentity(t *testing.T) {
	srv, err := ListenTCP(8, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		switch pingN(req) {
		case 1:
			return fmt.Errorf("replica gave up: %w", ErrNodeDown)
		case 2:
			return context.DeadlineExceeded
		default:
			return errors.New("plain failure")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[proto.NodeID]string{8: srv.Addr()})
	defer tr.Close()

	if _, err := tr.Call(context.Background(), 0, 8, ping(1)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("ErrNodeDown lost over the wire: %v", err)
	}
	if _, err := tr.Call(context.Background(), 0, 8, ping(2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("context.DeadlineExceeded lost over the wire: %v", err)
	}
	if _, err := tr.Call(context.Background(), 0, 8, ping(3)); err == nil || errors.Is(err, ErrNodeDown) {
		t.Fatalf("generic error mishandled: %v", err)
	}
}

func TestWireErrorCodec(t *testing.T) {
	cases := []error{
		nil,
		ErrNodeDown,
		ErrRemotePanic,
		context.Canceled,
		context.DeadlineExceeded,
		errors.New("opaque"),
	}
	for _, want := range cases {
		code, msg := encodeWireError(want)
		got := decodeWireError(code, msg)
		if want == nil {
			if got != nil {
				t.Fatalf("decode(encode(nil)) = %v", got)
			}
			continue
		}
		if got == nil || !errors.Is(got, want) && got.Error() != want.Error() {
			t.Fatalf("round-trip of %v gave %v", want, got)
		}
	}
}

func TestTCPContextDeadline(t *testing.T) {
	srv, err := ListenTCP(3, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		time.Sleep(time.Second)
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[proto.NodeID]string{3: srv.Addr()})
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := tr.Call(ctx, 0, 3, ping(0)); err == nil {
		t.Fatal("expected deadline error")
	}
	if time.Since(start) > 700*time.Millisecond {
		t.Fatal("deadline was not honoured")
	}
}
