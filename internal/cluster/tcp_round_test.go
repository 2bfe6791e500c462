package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm/internal/proto"
)

// These tests pin the round engine's structure — who runs a round, what a
// connection death or a cancellation costs, how dials are shared, which
// server goroutine answers — by counting goroutines, deliveries, dials and
// Stats. None of them compares a duration or a rate against a threshold; the
// only clocks are watchdogs that turn a hang into a failure.

const roundWatchdog = 10 * time.Second

// callMany and callOne run one round under the watchdog, so a server that
// stalls its connection fails the test instead of hanging it.
func callMany(tr *TCPTransport, nodes []proto.NodeID, req any) []Reply {
	ctx, cancel := context.WithTimeout(context.Background(), roundWatchdog)
	defer cancel()
	return tr.CallMany(ctx, 0, nodes, req)
}

func callOne(tr *TCPTransport, to proto.NodeID, req any) (any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), roundWatchdog)
	defer cancel()
	return tr.Call(ctx, 0, to, req)
}

// roundPeer is one test server: it counts deliveries, and parks a delivery in
// the handler — until released — when its ping number is negative or
// parkNext is set (which that delivery consumes). Tests park only slowPing
// requests, which the server serves off the connection's reader, as it does
// a durable replica's prepare waiting for its WAL.
type roundPeer struct {
	srv        *TCPServer
	deliveries atomic.Int64
	parkNext   atomic.Bool
	entered    chan struct{} // one token per parked delivery
	release    chan struct{} // closed to free every parked delivery
}

// startRoundPeers starts n servers with ids 1..n and a transport reaching
// them; sample, when non-nil, runs inside every delivery. Parked handlers
// are released before the servers close.
func startRoundPeers(t *testing.T, n int, sample func()) ([]*roundPeer, *TCPTransport) {
	t.Helper()
	peers := make([]*roundPeer, n)
	addrs := make(map[proto.NodeID]string, n)
	for i := range peers {
		p := &roundPeer{entered: make(chan struct{}, 64), release: make(chan struct{})}
		srv, err := ListenTCP(proto.NodeID(i+1), "127.0.0.1:0", func(_ proto.NodeID, req any) any {
			p.deliveries.Add(1)
			if sample != nil {
				sample()
			}
			if pingN(req) < 0 || p.parkNext.CompareAndSwap(true, false) {
				p.entered <- struct{}{}
				<-p.release
			}
			return pong(req)
		})
		if err != nil {
			t.Fatal(err)
		}
		p.srv = srv
		peers[i] = p
		addrs[srv.ID] = srv.Addr()
	}
	tr := NewTCPTransport(addrs)
	t.Cleanup(func() {
		tr.Close()
		for _, p := range peers {
			p.freeParked()
			_ = p.srv.Close()
		}
	})
	return peers, tr
}

func (p *roundPeer) freeParked() {
	select {
	case <-p.release:
	default:
		close(p.release)
	}
}

func nodeIDs(n int) []proto.NodeID {
	ids := make([]proto.NodeID, n)
	for i := range ids {
		ids[i] = proto.NodeID(i + 1)
	}
	return ids
}

// waitFor polls cond until it holds; the watchdog turns a hang into a failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(roundWatchdog)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// recvWithin receives from ch under the watchdog.
func recvWithin[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(roundWatchdog):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// settledGoroutines returns runtime.NumGoroutine() once goroutines that are
// on their way out (an earlier test's connection loops) have exited: the
// count must read the same on ten consecutive polls.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	return settled(t, runtime.NumGoroutine)
}

// settled returns count() once it reads the same on ten consecutive polls.
func settled(t *testing.T, count func() int) int {
	t.Helper()
	deadline := time.Now().Add(roundWatchdog)
	prev, same := count(), 0
	for same < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last %d)", prev)
		}
		time.Sleep(2 * time.Millisecond)
		if n := count(); n == prev {
			same++
		} else {
			prev, same = n, 0
		}
	}
	return prev
}

// clusterGoroutines counts the goroutines whose stack runs a function of
// this package, or that a function of this package started.
func clusterGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("\nqrdtm/internal/cluster.")) ||
			bytes.Contains(g, []byte("\ncreated by qrdtm/internal/cluster.")) {
			count++
		}
	}
	return count
}

func checkPongs(t *testing.T, replies []Reply, want int) {
	t.Helper()
	for _, r := range replies {
		if r.Err != nil {
			t.Fatalf("node %v: %v", r.Node, r.Err)
		}
		if got := pongN(r.Resp); got != want {
			t.Fatalf("node %v: pong %d, want %d", r.Node, got, want)
		}
	}
}

// (a) Warm rounds create no goroutine on either side: the count sampled from
// inside every handler of 1 000 seven-leg rounds — when a per-leg client
// goroutine or a per-request server goroutine would be alive — never exceeds
// the idle count, and the idle count is the same afterwards.
//
// It counts only goroutines running (or started by) this package's code: a
// runtime or library goroutine that comes and goes mid-test is not the
// round's.
func TestRoundCreatesNoGoroutines(t *testing.T) {
	const legs, rounds = 7, 1000
	var maxSeen atomic.Int64
	peers, tr := startRoundPeers(t, legs, func() {
		n := int64(clusterGoroutines())
		for {
			cur := maxSeen.Load()
			if n <= cur || maxSeen.CompareAndSwap(cur, n) {
				return
			}
		}
	})
	nodes := nodeIDs(legs)
	for i := 0; i < 20; i++ { // warm-up: dial, start the loops
		checkPongs(t, callMany(tr, nodes, ping(i)), i+1)
	}
	idle := settled(t, clusterGoroutines)
	maxSeen.Store(0)
	for i := 0; i < rounds; i++ {
		checkPongs(t, callMany(tr, nodes, ping(i)), i+1)
	}
	if got := maxSeen.Load(); got > int64(idle) {
		t.Errorf("%d goroutines alive inside a handler, %d when idle: a round created %d", got, idle, got-int64(idle))
	}
	if after := settled(t, clusterGoroutines); after != idle {
		t.Errorf("goroutines %d before %d warm rounds, %d after", idle, rounds, after)
	}
	for _, p := range peers {
		if got := p.deliveries.Load(); got != 20+rounds {
			t.Errorf("node %v served %d requests, want %d", p.srv.ID, got, 20+rounds)
		}
	}
}

// (b) Cancelling a round fails exactly the legs still unanswered — here the
// k of n whose replies are parked — with ctx.Err(), returns the n-k replies
// that had arrived, and leaves every connection in use.
func TestRoundCancelFailsOnlyUnansweredLegs(t *testing.T) {
	const n, k = 5, 2
	peers, tr := startRoundPeers(t, n, nil)
	nodes := nodeIDs(n)
	checkPongs(t, callMany(tr, nodes, ping(1)), 2)
	before := tr.Stats()
	conns := snapshotConns(tr)

	for _, p := range peers[:k] {
		p.parkNext.Store(true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundWatchdog)
	defer cancel()
	done := make(chan []Reply, 1)
	go func() { done <- tr.CallMany(ctx, 0, nodes, slowPing(7)) }()
	for _, p := range peers[:k] {
		recvWithin(t, "handler to park", p.entered)
	}
	// n requests out, n-k replies in: the round now waits on the parked k only.
	waitFor(t, "the unparked replies", func() bool {
		return tr.Stats().Messages-before.Messages == uint64(2*n-k)
	})
	cancel()
	for i, r := range recvWithin(t, "cancelled round", done) {
		if i < k {
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("parked node %v: err = %v, want context.Canceled", r.Node, r.Err)
			}
			if errors.Is(r.Err, ErrNodeDown) {
				t.Errorf("parked node %v: cancellation misreported as ErrNodeDown: %v", r.Node, r.Err)
			}
		} else if r.Err != nil || pongN(r.Resp) != 8 {
			t.Errorf("answered node %v: resp %+v err %v", r.Node, r.Resp, r.Err)
		}
	}
	st := tr.Stats()
	if st.Calls-before.Calls != n || st.Failed-before.Failed != k {
		t.Errorf("calls +%d failed +%d, want +%d and +%d", st.Calls-before.Calls, st.Failed-before.Failed, n, k)
	}
	if got := tr.inflightTotal(); got != 0 {
		t.Errorf("%d requests still registered after the round returned", got)
	}

	// The same connections serve the next round, behind the parked handlers.
	checkPongs(t, callMany(tr, nodes, ping(3)), 4)
	for id, mc := range snapshotConns(tr) {
		if mc != conns[id] {
			t.Errorf("node %v: connection was replaced after a cancelled round", id)
		}
	}
}

func snapshotConns(tr *TCPTransport) map[proto.NodeID]*muxConn {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[proto.NodeID]*muxConn, len(tr.conns))
	for id, mc := range tr.conns {
		out[id] = mc
	}
	return out
}

// (c) A pre-existing connection that dies mid-round costs one re-send of
// that leg alone and no failure; a connection dialed for the round that dies
// fails its leg as a transient node-down fault, with no re-send.
func TestRoundConnDeathResendsOnlyThatLeg(t *testing.T) {
	const n = 3
	const victim = proto.NodeID(2)
	errKilled := errors.New("test: connection killed")

	// run kills the victim's connection while the victim has the round's
	// request parked in its handler; a re-sent request would be answered.
	run := func(t *testing.T, warm bool) (peers []*roundPeer, tr *TCPTransport, replies []Reply, delta Stats) {
		peers, tr = startRoundPeers(t, n, nil)
		nodes := nodeIDs(n)
		if warm {
			checkPongs(t, callMany(tr, nodes, ping(1)), 2)
		}
		vp := peers[victim-1]
		vp.parkNext.Store(true)
		for _, p := range peers {
			p.deliveries.Store(0)
		}
		before := tr.Stats()
		done := make(chan []Reply, 1)
		go func() { done <- callMany(tr, nodes, slowPing(5)) }()
		recvWithin(t, "victim handler to park", vp.entered)
		snapshotConns(tr)[victim].kill(errKilled)
		replies = recvWithin(t, "round", done)
		after := tr.Stats()
		delta = Stats{
			Calls: after.Calls - before.Calls, Failed: after.Failed - before.Failed,
			Messages: after.Messages - before.Messages,
		}
		return peers, tr, replies, delta
	}

	t.Run("pre-existing connection", func(t *testing.T) {
		peers, _, replies, delta := run(t, true)
		checkPongs(t, replies, 6)
		if delta.Calls != n || delta.Failed != 0 {
			t.Errorf("calls +%d failed +%d, want +%d and +0", delta.Calls, delta.Failed, n)
		}
		// n requests, one re-sent request, n replies.
		if delta.Messages != 2*n+1 {
			t.Errorf("messages +%d, want +%d", delta.Messages, 2*n+1)
		}
		for _, p := range peers {
			want := int64(1)
			if p.srv.ID == victim {
				want = 2
			}
			if got := p.deliveries.Load(); got != want {
				t.Errorf("node %v: %d deliveries, want %d", p.srv.ID, got, want)
			}
		}
	})

	t.Run("freshly dialed connection", func(t *testing.T) {
		peers, _, replies, delta := run(t, false)
		for _, r := range replies {
			if r.Node != victim {
				if r.Err != nil || pongN(r.Resp) != 6 {
					t.Errorf("node %v: resp %+v err %v", r.Node, r.Resp, r.Err)
				}
				continue
			}
			if !errors.Is(r.Err, ErrNodeDown) || !errors.Is(r.Err, ErrTransient) {
				t.Errorf("victim err = %v, want ErrNodeDown+ErrTransient", r.Err)
			}
			if !errors.Is(r.Err, errKilled) {
				t.Errorf("victim err = %v does not carry the connection's cause", r.Err)
			}
		}
		if delta.Calls != n || delta.Failed != 1 {
			t.Errorf("calls +%d failed +%d, want +%d and +1", delta.Calls, delta.Failed, n)
		}
		for _, p := range peers {
			if got := p.deliveries.Load(); got != 1 {
				t.Errorf("node %v: %d deliveries, want 1 (no re-send on a fresh connection)", p.srv.ID, got)
			}
		}
	})
}

// (d) Cold dials are concurrent and single-flighted: with every dial gated,
// several concurrent rounds over k cold peers put exactly k dials in flight —
// all k before any is released — and each peer ends up with one connection.
func TestRoundColdDialsConcurrentAndSingleFlight(t *testing.T) {
	const k, callers = 6, 4
	_, tr := startRoundPeers(t, k, nil)
	gate := make(chan struct{})
	var inFlight, total atomic.Int64
	realDial := tr.dialConn
	tr.dialConn = func(ctx context.Context, addr string) (net.Conn, error) {
		total.Add(1)
		inFlight.Add(1)
		defer inFlight.Add(-1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return realDial(ctx, addr)
	}
	nodes := nodeIDs(k)
	done := make(chan []Reply, callers)
	for c := 0; c < callers; c++ {
		go func() { done <- callMany(tr, nodes, ping(1)) }()
	}
	// A round that dialed its legs one after another would park here with a
	// single dial in flight.
	waitFor(t, "all cold dials in flight", func() bool { return inFlight.Load() == k })
	close(gate)
	for c := 0; c < callers; c++ {
		checkPongs(t, recvWithin(t, "cold round", done), 2)
	}
	if got := total.Load(); got != k {
		t.Errorf("%d dials for %d cold peers under %d concurrent rounds, want one each", got, k, callers)
	}
	if got := len(snapshotConns(tr)); got != k {
		t.Errorf("transport holds %d connections, want %d", got, k)
	}
}

// A waiter on a shared dial honours its own context, and giving up leaves
// the dial running for the others.
func TestRoundDialWaiterHonoursOwnContext(t *testing.T) {
	_, tr := startRoundPeers(t, 1, nil)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	realDial := tr.dialConn
	tr.dialConn = func(ctx context.Context, addr string) (net.Conn, error) {
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return realDial(ctx, addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundWatchdog)
	first := make(chan error, 1)
	go func() {
		_, err := tr.Call(ctx, 0, 1, ping(1))
		first <- err
	}()
	recvWithin(t, "dial to start", started)
	second := make(chan error, 1)
	go func() {
		_, err := callOne(tr, 1, ping(1))
		second <- err
	}()
	cancel()
	if err := recvWithin(t, "cancelled waiter", first); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	close(gate)
	if err := recvWithin(t, "surviving waiter", second); err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
}

// (e) A request that waits does not stall its connection: with one slowPing
// handler blocked, later requests on the same connection are still served.
func TestRoundBlockedHandlerDoesNotStallConnection(t *testing.T) {
	peers, tr := startRoundPeers(t, 1, nil)
	p := peers[0]
	checkPongs(t, callMany(tr, nodeIDs(1), ping(1)), 2)
	blocked := make(chan error, 1)
	go func() {
		_, err := callOne(tr, 1, slowPing(-1))
		blocked <- err
	}()
	recvWithin(t, "handler to park", p.entered)
	for i := 0; i < 50; i++ {
		resp, err := callOne(tr, 1, ping(i))
		if err != nil || pongN(resp) != i+1 {
			t.Fatalf("call %d behind a blocked handler: resp %+v err %v", i, resp, err)
		}
	}
	select {
	case err := <-blocked:
		t.Fatalf("blocked call returned early: %v", err)
	default:
	}
	if got := len(snapshotConns(tr)); got != 1 {
		t.Fatalf("transport holds %d connections, want 1 (all calls shared it)", got)
	}
	p.freeParked()
	if err := recvWithin(t, "blocked call", blocked); err != nil {
		t.Fatalf("blocked call: %v", err)
	}
}

// (f) Sequential calls that need no wait start no server goroutine: the
// reader answers each one itself. The count sampled inside the handler over
// 1 000 calls never exceeds the idle count, and the idle count is the
// server's accept loop and reader plus the client's read and write loops.
func TestRoundSequentialCallsStartNoServerGoroutine(t *testing.T) {
	const calls = 1000
	base := settledGoroutines(t)
	var maxSeen atomic.Int64
	srv, err := ListenTCP(1, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		if n := int64(runtime.NumGoroutine()); n > maxSeen.Load() {
			maxSeen.Store(n) // calls are sequential: no concurrent writer
		}
		return pong(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	t.Cleanup(func() {
		tr.Close()
		_ = srv.Close()
	})
	if _, err := callOne(tr, 1, ping(0)); err != nil {
		t.Fatal(err)
	}
	idle := settledGoroutines(t)
	if idle != base+4 {
		t.Fatalf("%d goroutines with one idle connection, want %d (accept loop, reader, two client loops)", idle, base+4)
	}
	maxSeen.Store(0)
	for i := 0; i < calls; i++ {
		resp, err := callOne(tr, 1, ping(i))
		if err != nil || pongN(resp) != i+1 {
			t.Fatalf("call %d: resp %+v err %v", i, resp, err)
		}
	}
	if got := maxSeen.Load(); got > int64(idle) {
		t.Errorf("%d goroutines alive inside a handler, %d when idle: the server started %d", got, idle, got-int64(idle))
	}
	if after := settledGoroutines(t); after != idle {
		t.Errorf("goroutines %d before %d sequential calls, %d after", idle, calls, after)
	}
}

// (g) A server with a request blocked off the reader closes promptly once
// that handler returns — Close waits for it rather than leaking it — and
// leaves no goroutine behind.
func TestRoundServerCloseWithSlowRequestInFlight(t *testing.T) {
	base := settledGoroutines(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, err := ListenTCP(1, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		entered <- struct{}{}
		<-release
		return pong(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	called := make(chan error, 1)
	go func() {
		_, err := callOne(tr, 1, slowPing(1))
		called <- err
	}()
	recvWithin(t, "handler to block", entered)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Close drops the connection, so the call fails (its one re-send finds
	// the listener gone) while the handler is still blocked.
	if err := recvWithin(t, "call to fail", called); err == nil {
		t.Fatal("call answered by a closed server")
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a handler still running", err)
	default:
	}
	close(release)
	if err := recvWithin(t, "server Close", closed); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tr.Close()
	if got := settledGoroutines(t); got != base {
		t.Fatalf("%d goroutines after Close, %d before the server existed", got, base)
	}
}

// (h) Where a prepare or decide is served follows the connection's last one.
// The connection's first runs off the reader, and its goroutine exits when
// it did not wait. After one that took under waitThreshold the next is
// answered by the reader: over 1 000 sequential fast slowPings, at most a
// few (those the box happened to slow past the threshold) ran while a
// goroutine beyond the idle count was alive. After one that waited, the next
// runs off the reader, so it can block without stalling the connection.
func TestRoundWaitingRequestFollowsTheLastOne(t *testing.T) {
	const calls, waits = 1000, 1 << 20
	base := settledGoroutines(t)
	var idle, offReader atomic.Int64
	idle.Store(-1)
	entered, release := make(chan struct{}, 1), make(chan struct{})
	srv, err := ListenTCP(1, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		switch n := pingN(req); {
		case n < 0:
			entered <- struct{}{}
			<-release
		case n >= waits:
			time.Sleep(2 * waitThreshold)
		case idle.Load() >= 0 && int64(runtime.NumGoroutine()) > idle.Load():
			offReader.Add(1)
		}
		return pong(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		tr.Close()
		_ = srv.Close()
	})
	call := func(req any) {
		t.Helper()
		if resp, err := callOne(tr, 1, req); err != nil || pongN(resp) != pingN(req)+1 {
			t.Fatalf("%+v: resp %+v err %v", req, resp, err)
		}
	}
	call(slowPing(0)) // a connection's first one runs off the reader
	n := settledGoroutines(t)
	if n != base+4 {
		t.Fatalf("%d goroutines after one fast slowPing, want %d (accept loop, reader, two client loops)", n, base+4)
	}
	idle.Store(int64(n))
	for i := 1; i <= calls; i++ {
		call(slowPing(i))
	}
	if got := offReader.Load(); got > calls/10 {
		t.Errorf("%d of %d fast slowPings ran beside an extra goroutine: not answered by the reader", got, calls)
	}

	call(slowPing(waits))
	blocked := make(chan error, 1)
	go func() {
		_, err := callOne(tr, 1, slowPing(-1))
		blocked <- err
	}()
	recvWithin(t, "handler to block", entered)
	for i := 0; i < 50; i++ {
		call(ping(i))
	}
	close(release)
	if err := recvWithin(t, "blocked call", blocked); err != nil {
		t.Fatalf("blocked call: %v", err)
	}
}

// Frames queued on a connection when it dies go back to the pool, and a send
// after the death takes nothing: the live-buffer gauge cannot drift.
func TestMuxConnDeathReturnsQueuedFrames(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	mc := newMuxConn(a, nil) // loops not started: frames stay queued
	live0, _ := FrameBufStats()
	const queued = 3
	ch := make(chan legMsg, queued)
	for i := 0; i < queued; i++ {
		if !mc.send(uint64(i), waiter{ch: ch, leg: i}, getFrameBuf()) {
			t.Fatal("send refused on a live connection")
		}
	}
	cause := errors.New("test: killed")
	mc.kill(cause)
	if live, _ := FrameBufStats(); live != live0 {
		t.Errorf("%d frame buffers live after the death, %d before the sends", live, live0)
	}
	for i := 0; i < queued; i++ {
		m := recvWithin(t, "death notice", ch)
		if m.kind != msgDead || !errors.Is(m.err, cause) {
			t.Errorf("waiter got %+v, want a death notice carrying the cause", m)
		}
	}
	frame := getFrameBuf()
	if mc.send(99, waiter{ch: ch, leg: 0}, frame) {
		t.Error("send accepted on a dead connection")
	}
	putFrameBuf(frame)
	if got := mc.pendingCount(); got != 0 {
		t.Errorf("%d waiters registered on a dead connection", got)
	}
}

// A waiter told of its connection's death finds the connection dead: the
// round's re-send looks the peer up again at once, and a connection that
// still read as alive there would be chosen again and spend the one re-send
// on a corpse. kill runs on another goroutine, as it does from the read loop.
func TestMuxConnDeathNoticeImpliesDead(t *testing.T) {
	for i := 0; i < 500; i++ {
		a, b := net.Pipe()
		mc := newMuxConn(a, nil)
		ch := make(chan legMsg, 1)
		if !mc.send(1, waiter{ch: ch}, getFrameBuf()) {
			t.Fatal("send refused on a live connection")
		}
		go mc.kill(errors.New("test: killed"))
		if m := recvWithin(t, "death notice", ch); m.kind != msgDead {
			t.Fatalf("waiter got %+v, want a death notice", m)
		}
		if !mc.isDead() {
			t.Fatalf("iteration %d: connection reads as alive after its death notice was delivered", i)
		}
		_ = b.Close()
	}
}

// A peer that stops reading cannot grow the write queue without bound: at
// maxQueuedFrames the connection is declared dead and every waiter told.
func TestMuxConnQueueOverflowKillsConnection(t *testing.T) {
	a, b := net.Pipe() // unbuffered and never read: the write loop sticks on its first write
	defer b.Close()
	mc := newMuxConn(a, nil)
	mc.start()
	live0, _ := FrameBufStats()
	// The write loop takes the frames queued before its first pass and sticks
	// writing them; everything after that stays queued.
	const limit = 2 * maxQueuedFrames
	ch := make(chan legMsg, limit)
	accepted := 0
	for ; accepted < limit; accepted++ {
		frame := getFrameBuf()
		*frame = append(*frame, 0)
		if !mc.send(uint64(accepted), waiter{ch: ch, leg: accepted}, frame) {
			putFrameBuf(frame)
			break
		}
	}
	if accepted < maxQueuedFrames || accepted == limit {
		t.Fatalf("%d frames accepted by a connection nobody reads, want a refusal soon after %d", accepted, maxQueuedFrames)
	}
	if !mc.isDead() || !errors.Is(mc.deathErr(), errQueueOverflow) {
		t.Fatalf("connection dead=%v err=%v, want a queue-overflow death", mc.isDead(), mc.deathErr())
	}
	for i := 0; i < accepted; i++ {
		if m := recvWithin(t, "death notice", ch); m.kind != msgDead {
			t.Fatalf("waiter got %+v, want a death notice", m)
		}
	}
	waitFor(t, "the write loop to return its batch", func() bool {
		live, _ := FrameBufStats()
		return live == live0
	})
}
