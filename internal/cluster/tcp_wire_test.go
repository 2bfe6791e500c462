package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm/internal/proto"
)

// Regression (dial-ignores-context): a pre-cancelled context must return
// immediately — the dial path previously used net.DialTimeout, which could
// block a cancelled caller for the full 2s dial timeout.
func TestTCPDialHonoursCancelledContext(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		// 192.0.2.1 (TEST-NET-1) never answers; without context plumbing
		// the dial blocks until its timeout.
		tr := NewTCPTransport(map[proto.NodeID]string{9: "192.0.2.1:9"}, WithDialTimeout(5*time.Second))
		defer tr.Close()

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		_, err := tr.Call(ctx, 0, 9, ping(0))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("pre-cancelled call took %v", el)
		}
		if errors.Is(err, ErrNodeDown) {
			t.Fatalf("cancellation misclassified as ErrNodeDown: %v", err)
		}

		// The dial itself (below Call's ctx pre-check) must also honour
		// cancellation.
		start = time.Now()
		if _, err := tr.dial(ctx, 9); !errors.Is(err, context.Canceled) {
			t.Fatalf("dial err = %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("pre-cancelled dial took %v", el)
		}

		// A cancellation racing the dial must cut it short of the dial
		// timeout (trivially satisfied where the route is unreachable and
		// the dial fails fast; load-bearing where the address blackholes).
		ctx2, cancel2 := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel2()
		}()
		start = time.Now()
		_, _ = tr.Call(ctx2, 0, 9, ping(0))
		if el := time.Since(start); el > 3*time.Second {
			t.Fatalf("cancelled mid-dial call took %v (dial timeout not cut short)", el)
		}
	})
}

// Regression (stale-connection spurious failure): a connection that was
// healthy when last used but whose server has since restarted must not fail
// the call — the transport transparently redials once, and Stats.Failed
// stays zero across restart cycles.
func TestTCPStaleConnRedialOnce(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		handler := func(from proto.NodeID, req any) any {
			return pong(req)
		}
		srv, err := ListenTCP(1, "127.0.0.1:0", handler)
		if err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr()
		tr := NewTCPTransport(map[proto.NodeID]string{1: addr})
		defer tr.Close()

		const cycles = 4
		for cy := 0; cy < cycles; cy++ {
			// A call establishes a live multiplexed connection.
			if _, err := tr.Call(context.Background(), 0, 1, ping(cy)); err != nil {
				t.Fatalf("cycle %d pre-restart call: %v", cy, err)
			}
			// Restart the server on the same address: the client's
			// connection is now stale.
			if err := srv.Close(); err != nil {
				t.Fatalf("cycle %d close: %v", cy, err)
			}
			srv, err = ListenTCP(1, addr, handler)
			if err != nil {
				t.Fatalf("cycle %d relisten: %v", cy, err)
			}
			// The next call hits the stale connection and must succeed by
			// redialing, not burn a failure.
			resp, err := tr.Call(context.Background(), 0, 1, ping(100+cy))
			if err != nil {
				t.Fatalf("cycle %d post-restart call: %v", cy, err)
			}
			if pongN(resp) != 101+cy {
				t.Fatalf("cycle %d resp = %+v", cy, resp)
			}
		}
		_ = srv.Close()
		if st := tr.Stats(); st.Failed != 0 {
			t.Fatalf("Stats.Failed = %d across %d restart cycles, want 0", st.Failed, cycles)
		}
	})
}

// Regression (multi-sentinel collapse): errors carrying several sentinel
// identities at once — the transport's own errors.Join(ErrNodeDown,
// ErrTransient) above all — must keep every identity across the wire.
func TestWireErrorMultiSentinel(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		is    []error
		isNot []error
	}{
		{
			name:  "node-down+transient",
			err:   errors.Join(ErrNodeDown, ErrTransient, errors.New("connection refused")),
			is:    []error{ErrNodeDown, ErrTransient},
			isNot: []error{ErrRemotePanic, context.Canceled},
		},
		{
			name:  "panic only",
			err:   fmt.Errorf("%w: boom", ErrRemotePanic),
			is:    []error{ErrRemotePanic},
			isNot: []error{ErrNodeDown, ErrTransient},
		},
		{
			name:  "deadline+transient",
			err:   errors.Join(context.DeadlineExceeded, ErrTransient),
			is:    []error{context.DeadlineExceeded, ErrTransient},
			isNot: []error{ErrNodeDown, context.Canceled},
		},
		{
			name:  "canceled",
			err:   context.Canceled,
			is:    []error{context.Canceled},
			isNot: []error{context.DeadlineExceeded},
		},
		{
			name:  "plain",
			err:   errors.New("opaque"),
			is:    nil,
			isNot: []error{ErrNodeDown, ErrTransient, ErrRemotePanic},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flags, msg := encodeWireError(tc.err)
			got := decodeWireError(flags, msg)
			if got == nil {
				t.Fatal("decoded nil for a non-nil error")
			}
			if got.Error() != tc.err.Error() {
				t.Fatalf("text %q, want %q", got.Error(), tc.err.Error())
			}
			for _, want := range tc.is {
				if !errors.Is(got, want) {
					t.Fatalf("identity %v lost over the wire: %v", want, got)
				}
			}
			for _, not := range tc.isNot {
				if errors.Is(got, not) {
					t.Fatalf("spurious identity %v gained over the wire: %v", not, got)
				}
			}
		})
	}
}

// The same property end-to-end: a handler returning a joined multi-sentinel
// error keeps both identities on the caller's side.
func TestTCPMultiSentinelOverWire(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		srv, err := ListenTCP(1, "127.0.0.1:0", func(_ proto.NodeID, _ any) any {
			return errors.Join(ErrNodeDown, ErrTransient, errors.New("replica: quorum member unreachable"))
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tr := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
		defer tr.Close()
		_, err = tr.Call(context.Background(), 0, 1, ping(0))
		if !errors.Is(err, ErrNodeDown) {
			t.Fatalf("ErrNodeDown identity lost: %v", err)
		}
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("ErrTransient identity collapsed away: %v", err)
		}
	})
}

// Pipelining proof: slow calls issued concurrently to one peer must overlap
// on the single multiplexed connection instead of queueing behind each
// other, and the transport must hold exactly one connection for the peer.
// The calls are slowPings, which the server serves off the reader, as it
// does a prepare waiting for a WAL.
func TestTCPCallsArePipelined(t *testing.T) {
	const workers, delay = 8, 100 * time.Millisecond
	srv, err := ListenTCP(1, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		time.Sleep(delay)
		return pong(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	defer tr.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := tr.Call(context.Background(), 0, 1, slowPing(i))
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if pongN(resp) != i+1 {
				t.Errorf("call %d: resp %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	// Serial round-trips would take workers*delay (800ms); pipelined calls
	// share the connection and the server handles them concurrently.
	if el := time.Since(start); el > time.Duration(workers)*delay/2 {
		t.Fatalf("%d concurrent %v calls took %v — not pipelined", workers, delay, el)
	}
	tr.mu.Lock()
	conns := len(tr.conns)
	tr.mu.Unlock()
	if conns != 1 {
		t.Fatalf("transport holds %d connections to the peer, want 1 (multiplexed)", conns)
	}
}

// CallMany fans a single-encoded request out to every peer via Multicast's
// fast path; every reply must still arrive and decode independently.
func TestTCPMulticastSingleEncode(t *testing.T) {
	const nodes = 3
	peers := make(map[proto.NodeID]string, nodes)
	for i := 0; i < nodes; i++ {
		id := proto.NodeID(i + 1)
		srv, err := ListenTCP(id, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
			return proto.ReadRep{OK: true, Copy: proto.ObjectCopy{ID: req.(proto.ReadReq).Obj, Version: proto.Version(id), Val: proto.Int64(int64(id))}}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		peers[id] = srv.Addr()
	}
	tr := NewTCPTransport(peers)
	defer tr.Close()

	if _, ok := any(tr).(MultiCaller); !ok {
		t.Fatal("TCPTransport does not implement MultiCaller")
	}
	replies := Multicast(context.Background(), tr, 0, []proto.NodeID{1, 2, 3}, proto.ReadReq{Txn: 1, Obj: "x"})
	if len(replies) != nodes {
		t.Fatalf("got %d replies", len(replies))
	}
	for _, r := range replies {
		if r.Err != nil {
			t.Fatalf("node %v: %v", r.Node, r.Err)
		}
		rep := r.Resp.(proto.ReadRep)
		if !rep.OK || rep.Copy.Version != proto.Version(r.Node) {
			t.Fatalf("node %v: rep %+v", r.Node, rep)
		}
	}
}

// Stress: ≥64 concurrent pipelined calls per peer, through FaultTransport
// injecting drops, duplicates, and connection kills, with RetryTransport
// masking the injected faults. Every call must come back with the right
// reply (run under -race in make check).
func TestTCPPipelinedFaultStress(t *testing.T) {
	const workers, callsPer = 64, 20
	srv, err := ListenTCP(1, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		return pong(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	defer tcp.Close()

	ft := NewFaultTransport(tcp, 0xC0FFEE)
	ft.SetDropRate(0.03)
	ft.SetDuplicateRate(0.03)
	tr := NewRetryTransport(ft, RetryPolicy{
		MaxAttempts: 20,
		CallTimeout: 2 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	})

	// Kill connections continuously while the calls are in flight, forcing
	// the redial path (and its single transparent retry) under load.
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

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPer; i++ {
				n := w*1000 + i
				resp, err := tr.Call(context.Background(), 0, 1, ping(n))
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if pongN(resp) != n+1 {
					t.Errorf("worker %d call %d: resp %+v", w, i, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(killerDone)
	killerWG.Wait()

	st := tr.Stats()
	if st.Calls == 0 || st.Messages == 0 {
		t.Fatalf("implausible stats after stress: %+v", st)
	}
	if f := ft.Faults(); f.Dropped == 0 && f.Duplicated == 0 {
		t.Fatalf("fault injection never fired: %+v", f)
	}
}

// A connection that does not open with wireMagic — a gob stream, another
// protocol, a wrong version, or a lone first byte — is closed without
// running the handler, while a binary client on the same listener keeps
// working and the server's goroutines return to their baseline.
func TestTCPServerClosesConnWithoutMagic(t *testing.T) {
	var handled atomic.Int64
	srv, err := ListenTCP(1, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		handled.Add(1)
		return pong(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	defer tr.Close()
	if _, err := tr.Call(context.Background(), 0, 1, ping(1)); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	var envelope bytes.Buffer
	if err := gob.NewEncoder(&envelope).Encode(&struct {
		From proto.NodeID
		Req  proto.LogTailReq
	}{From: 0, Req: ping(2)}); err != nil {
		t.Fatal(err)
	}
	prefixes := map[string][]byte{
		"gob-envelope":  envelope.Bytes(),
		"http":          []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
		"wrong-version": {wireMagic[0], wireMagic[1], wireMagic[2], wireMagic[3] + 1, 0, 0, 0, 0},
		"first-byte":    wireMagic[:1],
	}
	for name, prefix := range prefixes {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if _, err := conn.Write(prefix); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if len(prefix) < len(wireMagic) {
			// The server waits for the whole magic; end the stream short of it.
			_ = conn.(*net.TCPConn).CloseWrite()
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var buf [1]byte
		n, err := conn.Read(buf[:])
		if n != 0 || err == nil {
			t.Fatalf("%s: server replied (%d bytes) instead of closing", name, n)
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: server kept the connection open", name)
		}
		_ = conn.Close()
	}

	if got := handled.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1 (the binary call only)", got)
	}
	resp, err := tr.Call(context.Background(), 0, 1, ping(41))
	if err != nil || pongN(resp) != 42 {
		t.Fatalf("binary client after bad prefixes: resp %+v, err %v", resp, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d: a serve goroutine outlived its connection", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
