package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

// This file implements the real-network transport: replicas serve framed
// request/reply messages over TCP. It exists to demonstrate that the
// protocols in internal/core and internal/server are not bound to the
// simulator; cmd/qr-node and the integration tests run a genuine
// multi-listener cluster over it.
//
// There is one wire protocol, pipelined binary frames (see wire.go for the
// frame layout): one multiplexed connection per peer carries many concurrent
// calls, request-id-tagged frames let a demux goroutine route replies to
// waiting callers, and every proto message uses the hand-rolled binary
// codec with pooled buffers. A quorum round runs on its caller's goroutine
// (roundTrip), and the server answers each request on the goroutine that
// read it (serveWire): steady traffic creates no goroutine on either side.
// Only a request whose handling may wait on a durable replica's WAL — a
// prepare or a decide (mayWait) — is served on a goroutine of its own, and
// only while such requests on its connection do wait. The server closes any
// connection that does not open with wireMagic.
//
// Failure model: a TCP-level fault (dial refused, connection reset, decode
// EOF) does not by itself prove the destination crashed — the node may be
// slow, restarting, or behind a flaky link. Call therefore tags such errors
// with both ErrNodeDown (the caller's best local suspicion) and ErrTransient
// (the fault is worth retrying); RetryTransport uses the latter to mask
// transient faults and only lets ErrNodeDown stand once the retry budget is
// exhausted. Context cancellation and deadlines are surfaced as the context
// errors themselves, never as ErrNodeDown.
//
// A connection that was healthy when a call used it but dies before the
// reply arrives is the signature of a peer restart, not a request failure:
// the call (each leg of a round, independently) transparently redials once
// on a fresh connection before giving up. Handlers tolerate the resulting
// at-least-once delivery (prepares re-vote, commits are version-guarded — the
// same contract FaultTransport's duplicate injection already relies on).

// TCPServer serves one node's handler on a TCP listener.
type TCPServer struct {
	ID       proto.NodeID
	handler  Handler
	listener net.Listener
	closed   atomic.Bool
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// ListenTCP starts serving handler for node id on addr (e.g. "127.0.0.1:0").
func ListenTCP(id proto.NodeID, addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	s := &TCPServer{ID: id, handler: h, listener: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

// Close stops the listener, closes every live connection (so serve
// goroutines blocked reading a client's idle connection unblock
// immediately), and waits for them to finish. It is safe to call more than
// once.
func (s *TCPServer) Close() error {
	s.closed.Store(true)
	err := s.listener.Close()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// track registers a live connection; it reports false (and closes the
// connection) when the server is already shutting down.
func (s *TCPServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		_ = conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *TCPServer) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			return
		}
		s.wg.Add(1)
		go s.serveWire(conn)
	}
}

// handle runs the handler for one request, converting panics and returned
// error values into a typed error result.
func (s *TCPServer) handle(from proto.NodeID, req any) (resp any, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("%w: %v", ErrRemotePanic, r)
		}
	}()
	out := s.handler(from, req)
	if e, ok := out.(error); ok {
		// Handlers that return an error value get typed propagation instead
		// of an encode failure on an unregistered type.
		return nil, e
	}
	return out, nil
}

// mayWait reports whether serving req may block on I/O: a durable replica
// answers a prepare or a decide only once its WAL append is on disk. Every
// other request is answered by the connection's reader.
func mayWait(req any) bool {
	switch req.(type) {
	case proto.PrepareReq, proto.DecideReq:
		return true
	}
	return false
}

// waitThreshold tells a request that waited from one that did not: an
// in-memory prepare or decide is served in a few microseconds, a WAL append
// takes tens to hundreds.
const waitThreshold = 20 * time.Microsecond

// serveWire speaks the pipelined binary protocol on one accepted connection,
// closing it without running the handler when its first four bytes are not
// wireMagic. The reader answers each request itself (decode, handler, reply
// write, next frame): no goroutine handoff, and a stack already grown to the
// handler's depth. A request that mayWait goes to serveOff instead while the
// connection's last one took waitThreshold or more, so the connection keeps
// pipelining behind a WAL wait; either way one goroutine runs the whole
// handler call, so a wrapper around the handler times all of it. A client
// that stops reading blocks the reader in Write, and TCP pushes back on it.
func (s *TCPServer) serveWire(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	br := bufio.NewReader(conn)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != wireMagic {
		return
	}
	c := &wireConn{s: s, conn: conn, off: make(chan offReq), done: make(chan struct{})}
	c.waiting.Store(true)
	defer c.wg.Wait()
	defer close(c.done)
	var scratch []byte
	ids := proto.NewIDTable()
	for {
		payload, err := readFrame(br, scratch)
		if err != nil {
			return
		}
		scratch = payload
		if len(payload) < 9 || payload[8] != frameReq {
			return
		}
		// Decode inline: the codec copies everything out of the frame buffer,
		// so scratch is reusable immediately, and object ids come from this
		// reader's intern table, which only this goroutine touches.
		id := binary.BigEndian.Uint64(payload)
		from, req, err := decodeRequestBody(payload[9:], ids)
		var out any
		switch {
		case err != nil:
		case !mayWait(req):
			out, err = s.handle(from, req)
		case c.waiting.Load():
			r := offReq{id: id, from: from, req: req}
			select {
			case c.off <- r: // a goroutine parked after an earlier wait takes it
			default:
				c.wg.Add(1)
				go c.serveOff(r)
			}
			continue
		default:
			out, err = c.handleTimed(from, req)
		}
		c.reply(id, out, err)
	}
}

// wireConn is the server side of one binary-protocol connection.
type wireConn struct {
	s    *TCPServer
	conn net.Conn
	wmu  sync.Mutex     // serializes reply writes: the reader's and serveOff's
	wg   sync.WaitGroup // serveOff goroutines still running
	// waiting: the last request that mayWait took waitThreshold or more, so
	// the next one is served off the reader.
	waiting atomic.Bool
	off     chan offReq   // hands a request to a parked serveOff
	done    chan struct{} // closed when the reader exits: parked serveOffs return
}

// offReq is one decoded request served off the reader.
type offReq struct {
	id   uint64
	from proto.NodeID
	req  any
}

// handleTimed handles a request that mayWait and records whether it waited.
func (c *wireConn) handleTimed(from proto.NodeID, req any) (any, error) {
	t0 := time.Now()
	out, err := c.s.handle(from, req)
	c.waiting.Store(time.Since(t0) >= waitThreshold)
	return out, err
}

// serveOff serves r off the reader and writes its reply. While requests on
// the connection keep waiting it then parks for the next one, so a durable
// replica's prepares and decides reuse goroutines whose stacks have already
// grown to the WAL append's depth: a fresh goroutine per request spent 10%
// of bank_wal's CPU in runtime.newstack. Once one is served fast it exits.
func (c *wireConn) serveOff(r offReq) {
	defer c.wg.Done()
	for {
		out, err := c.handleTimed(r.from, r.req)
		c.reply(r.id, out, err)
		if !c.waiting.Load() {
			return
		}
		select {
		case r = <-c.off:
		case <-c.done:
			return
		}
	}
}

// reply writes one reply frame. A failed write closes the connection, which
// also stops the reader.
func (c *wireConn) reply(id uint64, out any, err error) {
	frame := getFrameBuf()
	*frame = appendReplyFrame((*frame)[:0], id, out, err)
	c.wmu.Lock()
	_, werr := c.conn.Write(*frame)
	c.wmu.Unlock()
	putFrameBuf(frame)
	if werr != nil {
		_ = c.conn.Close()
	}
}

// TCPTransport implements Transport over TCP, speaking the pipelined binary
// protocol over one multiplexed connection per peer. Destination addresses
// are fixed at construction.
type TCPTransport struct {
	peers  map[proto.NodeID]string
	obsReg *obs.Registry

	mu      sync.Mutex
	conns   map[proto.NodeID]*muxConn    // one per peer
	dialing map[proto.NodeID]*dialFlight // dials in progress, one per peer
	closed  bool

	// dialCtx bounds the dial goroutines (counted by dials): Close cancels
	// it and waits for them.
	dialCtx     context.Context
	cancelDials context.CancelFunc
	dials       sync.WaitGroup

	nextID      atomic.Uint64
	dialTimeout time.Duration
	// dialConn opens the TCP connection to an address; a field so tests can
	// gate and count dials.
	dialConn func(ctx context.Context, addr string) (net.Conn, error)

	messages atomic.Uint64
	bytes    atomic.Uint64
	calls    atomic.Uint64
	failed   atomic.Uint64

	// peerState tracks each peer's last-call outcome (1 = up, 2 = down;
	// 0 = never called) for the /healthz peer summary. Allocated once at
	// construction and indexed by peer, so updates are lock-free.
	peerState map[proto.NodeID]*atomic.Int32
}

// TCPOption configures a TCPTransport.
type TCPOption func(*TCPTransport)

// WithDialTimeout sets the per-dial timeout (default 2s). The caller's
// context can always cut a dial shorter.
func WithDialTimeout(d time.Duration) TCPOption {
	return func(t *TCPTransport) { t.dialTimeout = d }
}

// WithObs attaches an observability registry. The transport then records the
// mux write-queue depth at enqueue (SiteQueueDepth, frames already ahead) and
// the enqueue-to-dequeue wait (SiteQueueWait) for every frame — the queueing
// leg of the commit critical path — and registers gauges for the frame-buffer
// pool and the in-flight request map (total and per peer).
func WithObs(reg *obs.Registry) TCPOption {
	return func(t *TCPTransport) { t.obsReg = reg }
}

// NewTCPTransport builds a transport that reaches each node at the given
// address.
func NewTCPTransport(peers map[proto.NodeID]string, opts ...TCPOption) *TCPTransport {
	p := make(map[proto.NodeID]string, len(peers))
	st := make(map[proto.NodeID]*atomic.Int32, len(peers))
	for k, v := range peers {
		p[k] = v
		st[k] = &atomic.Int32{}
	}
	t := &TCPTransport{
		peers:       p,
		conns:       make(map[proto.NodeID]*muxConn),
		dialing:     make(map[proto.NodeID]*dialFlight),
		dialTimeout: 2 * time.Second,
		peerState:   st,
	}
	t.dialCtx, t.cancelDials = context.WithCancel(context.Background())
	t.dialConn = func(ctx context.Context, addr string) (net.Conn, error) {
		d := net.Dialer{Timeout: t.dialTimeout}
		return d.DialContext(ctx, "tcp", addr)
	}
	for _, o := range opts {
		o(t)
	}
	if t.obsReg != nil {
		t.obsReg.RegisterGauge("wire_framebuf_live", func() int64 {
			live, _ := FrameBufStats()
			return live
		})
		t.obsReg.RegisterGauge("wire_framebuf_allocated", func() int64 {
			_, allocated := FrameBufStats()
			return int64(allocated)
		})
		t.obsReg.RegisterGauge("tcp_inflight_requests", t.inflightTotal)
		for id := range t.peers {
			peer := id
			t.obsReg.RegisterGauge(fmt.Sprintf("tcp_inflight_peer_%d", peer), func() int64 {
				return t.inflightPeer(peer)
			})
		}
	}
	return t
}

// inflightTotal counts requests awaiting replies across every live
// multiplexed connection.
func (t *TCPTransport) inflightTotal() int64 {
	t.mu.Lock()
	conns := make([]*muxConn, 0, len(t.conns))
	for _, mc := range t.conns {
		conns = append(conns, mc)
	}
	t.mu.Unlock()
	var n int64
	for _, mc := range conns {
		n += int64(mc.pendingCount())
	}
	return n
}

// inflightPeer counts requests awaiting replies on one peer's connection.
func (t *TCPTransport) inflightPeer(to proto.NodeID) int64 {
	t.mu.Lock()
	mc := t.conns[to]
	t.mu.Unlock()
	if mc == nil {
		return 0
	}
	return int64(mc.pendingCount())
}

// Peer last-call states.
const (
	peerUnknown int32 = iota
	peerUp
	peerDown
)

// notePeer records the outcome of one exchange with a peer.
func (t *TCPTransport) notePeer(to proto.NodeID, up bool) {
	if s, ok := t.peerState[to]; ok {
		if up {
			s.Store(peerUp)
		} else {
			s.Store(peerDown)
		}
	}
}

// PeerCounts reports how many peers answered (up) or failed (down) their
// most recent call; peers never called count as neither.
func (t *TCPTransport) PeerCounts() (up, down int) {
	for _, s := range t.peerState {
		switch s.Load() {
		case peerUp:
			up++
		case peerDown:
			down++
		}
	}
	return up, down
}

// Stats returns transport counters (mirrors MemTransport.Stats). Bytes are
// the real frame bytes this transport read and wrote on its connections —
// protocol preambles included — not an estimate.
func (t *TCPTransport) Stats() Stats {
	return Stats{
		Messages: t.messages.Load(),
		Bytes:    t.bytes.Load(),
		Calls:    t.calls.Load(),
		Failed:   t.failed.Load(),
	}
}

// countingConn counts the bytes crossing a connection in either direction.
type countingConn struct {
	net.Conn
	bytes *atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(uint64(n))
	return n, err
}

// dial opens a connection to peer "to", honouring the caller's context: a
// cancelled or tight-deadline call returns immediately with the context's
// error instead of blocking out the full dial timeout.
func (t *TCPTransport) dial(ctx context.Context, to proto.NodeID) (net.Conn, error) {
	addr, ok := t.peers[to]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %v", to)
	}
	conn, err := t.dialConn(ctx, addr)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller gave up; say so rather than suspecting the peer.
			return nil, ctxErr
		}
		// Refused/unreachable: suspected down, but retryable — the node may
		// be restarting.
		return nil, errors.Join(ErrNodeDown, ErrTransient, err)
	}
	return conn, nil
}

// classifyCallErr turns a raw connection error into the caller-facing error:
// context errors keep their identity (a cancelled call says nothing about
// the peer's health); everything else is a suspected-down, retryable fault.
func classifyCallErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return errors.Join(ErrNodeDown, ErrTransient, err)
}

// Call implements Transport: the one-leg case of a quorum round.
func (t *TCPTransport) Call(ctx context.Context, from, to proto.NodeID, req any) (any, error) {
	nodes := [1]proto.NodeID{to}
	legs := t.roundTrip(ctx, from, nodes[:], req)
	return legs[0].Resp, legs[0].Err
}

// CallMany implements MultiCaller: the request body is serialized once and
// the frames fan out to every node, so a k-member quorum multicast pays one
// encode instead of k — and runs on the calling goroutine alone.
func (t *TCPTransport) CallMany(ctx context.Context, from proto.NodeID, nodes []proto.NodeID, req any) []Reply {
	replies := make([]Reply, len(nodes))
	legs := t.roundTrip(ctx, from, nodes, req)
	for i := range legs {
		replies[i] = legs[i].Reply
	}
	return replies
}

var errTransportClosed = errors.New("cluster: transport closed")

// roundTrip sends req to every node and returns one finished leg per node,
// in order, all on the caller's goroutine: encode once, register every leg
// against one reply channel, enqueue the frames, then collect replies,
// connection deaths and ctx.Done() in a single loop.
//
// A leg whose connection pre-existed the round and dies before its reply is
// re-sent exactly once on a fresh dial (stale-connection masking, see the
// file comment); a connection dialed for this round that dies stands as a
// fault. When ctx fires, exactly the unanswered legs fail with ctx.Err() and
// every connection stays usable.
func (t *TCPTransport) roundTrip(ctx context.Context, from proto.NodeID, nodes []proto.NodeID, req any) []leg {
	n := len(nodes)
	t.calls.Add(uint64(n))
	legs := make([]leg, n)
	for i, node := range nodes {
		legs[i].Node = node
	}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	body, err := appendRequestBody((*buf)[:0], from, req)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		t.failed.Add(uint64(n))
		for i := range legs {
			legs[i].Err = err
		}
		return legs
	}
	*buf = body
	r := round{
		t:    t,
		body: body,
		legs: legs,
		// One slot per leg: a leg waits on one thing at a time (a dial, or its
		// registration on a connection) and each yields at most one message,
		// so senders never block.
		ch:     make(chan legMsg, n),
		baseID: t.nextID.Add(uint64(n)) - uint64(n),
		open:   n,
	}
	r.send(ctx)
	r.collect(ctx)
	return legs
}

// legMsg is one event for one leg of a round.
type legMsg struct {
	leg  int
	kind msgKind
	resp any      // msgReply: the reply
	err  error    // msgReply: the remote handler's error; msgDead: the cause; msgDialed: the dial's failure
	mc   *muxConn // msgDialed: the new connection
}

type msgKind uint8

const (
	msgReply  msgKind = iota // the leg's reply frame arrived
	msgDead                  // the connection the leg was registered on died
	msgDialed                // the dial the leg waited for ended
)

// waiter routes a request id, or a dial's outcome, to a leg of the round
// awaiting it.
type waiter struct {
	ch  chan<- legMsg
	leg int
}

// leg is one destination's progress through a round, ending in its Reply.
type leg struct {
	Reply
	mc     *muxConn // connection the request is (or was last) registered on
	state  legState
	fresh  bool // mc was dialed during this round: its death is final
	resent bool // already re-sent once after a connection death
}

type legState uint8

const (
	legUnsent  legState = iota // to be connected and enqueued by send
	legDialing                 // waiting for its peer's dial (a msgDialed)
	legQueued                  // registered and enqueued: waiting for a msgReply or msgDead
	legDone                    // answered or failed
)

// round is the state of one roundTrip.
type round struct {
	t      *TCPTransport
	body   []byte
	legs   []leg
	ch     chan legMsg
	baseID uint64
	open   int // legs not yet done
}

// id is leg i's request id, the same on a re-send (which goes to another
// connection).
func (r *round) id(i int) uint64 { return r.baseID + uint64(i) + 1 }

// send enqueues every unsent leg whose peer has a live connection and
// subscribes the others to their peer's dial, starting it if need be: a cold
// round over k peers has k dials in flight at once, and each leg is sent the
// moment its own dial ends (collect), not when an earlier leg's does.
func (r *round) send(ctx context.Context) {
	t := r.t
	for again := true; again; {
		again = false
		t.mu.Lock()
		for i := range r.legs {
			l := &r.legs[i]
			if l.state != legUnsent {
				continue
			}
			if t.closed {
				r.fail(i, errTransportClosed)
			} else if mc := t.conns[l.Node]; mc != nil && !mc.isDead() {
				l.mc, l.fresh = mc, false
			} else {
				t.joinDialLocked(l.Node, waiter{ch: r.ch, leg: i})
				l.state = legDialing
			}
		}
		t.mu.Unlock()
		for i := range r.legs {
			if r.legs[i].state == legUnsent {
				again = r.enqueue(ctx, i) || again
			}
		}
	}
}

// enqueue registers leg i on its connection and queues its frame. A
// connection found dead fails the leg, unless it pre-existed the round and
// the leg has its one re-send left: then enqueue reports true and the leg
// stays unsent for send's next pass.
func (r *round) enqueue(ctx context.Context, i int) (retry bool) {
	l := &r.legs[i]
	frame := getFrameBuf()
	*frame = appendFrame((*frame)[:0], r.id(i), frameReq, r.body)
	if l.mc.send(r.id(i), waiter{ch: r.ch, leg: i}, frame) {
		l.state = legQueued
		r.t.messages.Add(1) // request leg
		return false
	}
	putFrameBuf(frame)
	return r.died(ctx, i, l.mc.deathErr())
}

// died handles the death of leg i's connection before its reply: the one
// transparent re-send if the connection pre-existed the round (reported as
// true; the caller runs send), a failed leg otherwise.
func (r *round) died(ctx context.Context, i int, cause error) (resend bool) {
	l := &r.legs[i]
	if l.fresh || l.resent || ctx.Err() != nil {
		r.fail(i, classifyCallErr(ctx, cause))
		return false
	}
	l.resent, l.state = true, legUnsent
	return true
}

// collect waits for every open leg to be answered or to fail.
func (r *round) collect(ctx context.Context) {
	for r.open > 0 {
		var m legMsg
		select {
		case m = <-r.ch:
		case <-ctx.Done():
			r.abandon(ctx.Err())
			return
		}
		l := &r.legs[m.leg]
		switch m.kind {
		case msgReply:
			r.t.messages.Add(1) // reply leg
			r.t.notePeer(l.Node, true)
			l.Resp, l.Err, l.state = m.resp, m.err, legDone
			r.open--
		case msgDead:
			if r.died(ctx, m.leg, m.err) {
				r.send(ctx) // joins the peer's dial; never waits for it
			}
		case msgDialed:
			if m.err != nil {
				r.fail(m.leg, m.err)
			} else {
				l.mc, l.fresh, l.state = m.mc, true, legUnsent
				r.enqueue(ctx, m.leg) // fresh: fails rather than retries
			}
		}
	}
}

// abandon fails every unanswered leg with err and deregisters the queued
// ones, leaving the connections healthy: the demux loop drops a late reply
// when it finds no waiter registered, and a dial still running ends in a
// message nobody reads.
func (r *round) abandon(err error) {
	for i := range r.legs {
		l := &r.legs[i]
		if l.state == legQueued {
			l.mc.deregister(r.id(i))
		}
		if l.state != legDone {
			r.fail(i, err)
		}
	}
}

// fail closes leg i with a transport-level error.
func (r *round) fail(i int, err error) {
	l := &r.legs[i]
	r.t.failed.Add(1)
	if errors.Is(err, ErrNodeDown) {
		r.t.notePeer(l.Node, false)
	}
	l.Err, l.state = err, legDone
	r.open--
}

// dialFlight is one in-progress dial to a peer, shared by every leg that
// finds the peer without a live connection while it runs: each is told the
// outcome through its round's channel.
type dialFlight struct {
	waiters []waiter
}

// joinDialLocked subscribes w to the peer's in-progress dial, starting one if
// none is running. The dial runs on its own goroutine under the transport's
// context, not a caller's: each round honours its own ctx while it waits,
// and one caller giving up does not fail the others. t.mu must be held and
// t.closed false.
func (t *TCPTransport) joinDialLocked(to proto.NodeID, w waiter) {
	if f := t.dialing[to]; f != nil {
		f.waiters = append(f.waiters, w)
		return
	}
	f := &dialFlight{waiters: []waiter{w}}
	t.dialing[to] = f
	t.dials.Add(1)
	go func() {
		defer t.dials.Done()
		conn, err := t.dial(t.dialCtx, to)
		var mc *muxConn
		t.mu.Lock()
		delete(t.dialing, to) // no waiter joins after this
		switch {
		case t.closed:
			if err == nil {
				_ = conn.Close()
			}
			err = errTransportClosed
		case err == nil:
			mc = newMuxConn(&countingConn{Conn: conn, bytes: &t.bytes}, t.obsReg)
			t.conns[to] = mc
		}
		t.mu.Unlock()
		if mc != nil {
			mc.start()
		}
		for _, w := range f.waiters {
			w.ch <- legMsg{leg: w.leg, kind: msgDialed, mc: mc, err: err} // never blocks: see round.ch
		}
	}()
}

// queuedFrame is one frame awaiting the write loop, stamped at enqueue so
// the dequeue can attribute the wait to SiteQueueWait. The stamp is the zero
// time when the transport has no registry (Registry.Start's nil contract),
// making the matching ObserveSince a no-op.
type queuedFrame struct {
	buf *[]byte
	enq time.Time
}

// muxConn is one multiplexed connection: a write loop drains queued frames
// (coalescing flushes across pipelined calls) and a read loop routes reply
// frames to waiting rounds by request id. The connection's death reaches
// every waiter through its own reply channel, so a round watches one channel
// however many connections it spans.
type muxConn struct {
	conn net.Conn
	obs  *obs.Registry
	wake chan struct{} // cap 1: the queue went non-empty, or the connection died

	// mu orders send against kill: a frame is either queued before the death
	// (and returned to the pool by kill or the write loop) or refused.
	mu      sync.Mutex
	pending map[uint64]waiter
	queue   []queuedFrame
	dead    bool
	err     error
}

func newMuxConn(conn net.Conn, reg *obs.Registry) *muxConn {
	return &muxConn{
		conn:    conn,
		obs:     reg,
		wake:    make(chan struct{}, 1),
		pending: make(map[uint64]waiter),
	}
}

// pendingCount reports how many requests are awaiting replies (0 once dead —
// kill nils the map).
func (mc *muxConn) pendingCount() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return len(mc.pending)
}

func (mc *muxConn) start() {
	go mc.readLoop()
	go mc.writeLoop()
}

// isDead reads the flag under mu, the lock kill holds while it posts the
// death notices: a round that has been told of the death can never find the
// connection still looking alive.
func (mc *muxConn) isDead() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

// maxQueuedFrames bounds a connection's write queue. A caller has at most
// one frame per connection in flight, so only a peer that has stopped
// reading (while callers time out and retry) can reach it.
const maxQueuedFrames = 1 << 14

var errQueueOverflow = errors.New("cluster: write queue overflow (peer not reading)")

// send registers w under id and queues frame for the write loop. It reports
// false, taking neither, when the connection is already dead (the reply can
// never arrive).
func (mc *muxConn) send(id uint64, w waiter, frame *[]byte) bool {
	enq := mc.obs.Start()
	mc.mu.Lock()
	if !mc.dead && len(mc.queue) >= maxQueuedFrames {
		// The write loop has been stuck for this many frames: the peer stopped
		// reading. Callers that time out and retry would grow the queue
		// without bound, so the connection is declared dead instead.
		mc.mu.Unlock()
		mc.kill(errQueueOverflow)
		return false
	}
	if mc.dead {
		mc.mu.Unlock()
		return false
	}
	mc.pending[id] = w
	depth := len(mc.queue)
	mc.queue = append(mc.queue, queuedFrame{buf: frame, enq: enq})
	mc.mu.Unlock()
	// Frames already queued ahead of this one: the backlog it waits behind.
	mc.obs.Observe(obs.SiteQueueDepth, int64(depth))
	if depth == 0 {
		// Whoever found the queue non-empty knows a wake-up is already owed.
		select {
		case mc.wake <- struct{}{}:
		default:
		}
	}
	return true
}

func (mc *muxConn) deregister(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}

// deliver hands a reply to its waiter; replies whose caller already gave up
// are dropped.
func (mc *muxConn) deliver(id uint64, resp any, err error) {
	mc.mu.Lock()
	w, ok := mc.pending[id]
	delete(mc.pending, id)
	mc.mu.Unlock()
	if ok {
		w.ch <- legMsg{leg: w.leg, kind: msgReply, resp: resp, err: err}
	}
}

// kill marks the connection dead exactly once, tells every waiter through
// its reply channel, returns the unwritten frames to the pool and closes the
// connection.
func (mc *muxConn) kill(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead, mc.err = true, err
	for _, w := range mc.pending {
		w.ch <- legMsg{leg: w.leg, kind: msgDead, err: err} // never blocks: see round.ch
	}
	mc.pending = nil
	for _, qf := range mc.queue {
		putFrameBuf(qf.buf)
	}
	mc.queue = nil
	mc.mu.Unlock()
	select {
	case mc.wake <- struct{}{}: // the write loop, if parked, sees dead and exits
	default:
	}
	_ = mc.conn.Close()
}

func (mc *muxConn) deathErr() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err
}

// readLoop demultiplexes reply frames to waiting callers by request id. It
// owns the connection's intern table: replies' object ids decode through it.
func (mc *muxConn) readLoop() {
	br := bufio.NewReader(mc.conn)
	var scratch []byte
	ids := proto.NewIDTable()
	for {
		payload, err := readFrame(br, scratch)
		if err != nil {
			mc.kill(err)
			return
		}
		scratch = payload
		if len(payload) < 9 || payload[8] != frameRep {
			mc.kill(errors.New("cluster: corrupt reply frame"))
			return
		}
		id := binary.BigEndian.Uint64(payload)
		resp, rerr := decodeReply(payload[9:], ids)
		mc.deliver(id, resp, rerr)
	}
}

// writeLoop writes queued frames, taking everything queued since its last
// pass before flushing so pipelined calls share flushes (and, under load,
// packets).
func (mc *muxConn) writeLoop() {
	bw := bufio.NewWriter(mc.conn)
	_, _ = bw.Write(wireMagic[:]) // a failure is sticky: the first Flush reports it
	var batch []queuedFrame
	for {
		<-mc.wake
		mc.mu.Lock()
		if mc.dead {
			mc.mu.Unlock()
			return
		}
		batch, mc.queue = mc.queue, batch[:0]
		mc.mu.Unlock()
		for _, qf := range batch {
			mc.obs.ObserveSince(obs.SiteQueueWait, qf.enq)
			_, _ = bw.Write(*qf.buf) // sticky, as above
			putFrameBuf(qf.buf)
		}
		if err := bw.Flush(); err != nil {
			mc.kill(err)
			return
		}
	}
}

// CloseIdle severs current connections (fault injection and tests): every
// multiplexed connection is killed — in-flight pipelined calls observe the
// death and, when the connection pre-existed them, transparently redial
// once. The transport remains usable.
func (t *TCPTransport) CloseIdle() {
	t.mu.Lock()
	conns := t.conns
	t.conns = make(map[proto.NodeID]*muxConn)
	t.mu.Unlock()
	for _, mc := range conns {
		mc.kill(errors.New("cluster: connection killed"))
	}
}

// Close drops all connections, stops dialing new ones, and
// waits for dials in progress to end.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.cancelDials()
	t.CloseIdle()
	t.dials.Wait()
}
