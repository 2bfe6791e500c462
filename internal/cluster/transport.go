// Package cluster provides the message-passing substrate the DTM protocols
// run on: a Transport abstraction, an in-memory implementation that
// simulates a metric-space network (configurable latency, per-node service
// serialization, message accounting, crash-failure injection), and a TCP
// implementation for running a real multi-process cluster.
//
// The paper's testbed is a 40-node cluster with ~30 ms round trips for
// quorum multicasts and ~5 ms for unicasts. The in-memory transport keeps
// the *ratios* of those costs while scaling the absolute values down so that
// full parameter sweeps run in seconds.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/proto"
)

// ErrNodeDown is returned by Call when the destination node has crashed (or,
// over TCP, is unreachable).
var ErrNodeDown = errors.New("cluster: node down")

// ErrTransient tags failures that a retry may well cure: a refused dial, a
// reset connection, a decode cut short by EOF. The TCP transport joins it
// with ErrNodeDown (the fault is the caller's local evidence of a crash, but
// not proof); RetryTransport retries errors carrying this mark and lets only
// the final, budget-exhausted error stand as a genuine ErrNodeDown.
// MemTransport's crash-stop failures deliberately do NOT carry it — a
// simulated crash is definitive.
var ErrTransient = errors.New("cluster: transient fault")

// ErrRemotePanic is the typed identity of a handler panic propagated back
// over the TCP transport. It marks a programming error on the remote side,
// never a network fault, so it is not retryable.
var ErrRemotePanic = errors.New("cluster: remote handler panicked")

// Handler processes one request on behalf of a node and returns the reply.
// Handlers must be safe for concurrent use. The TCP server calls a handler
// on the goroutine that read the request, so it stalls its connection while
// it runs; only a PrepareReq or DecideReq that waits (for a durable
// replica's WAL) is moved to a goroutine of its own.
type Handler func(from proto.NodeID, req any) any

// Transport delivers request/reply messages between nodes.
type Transport interface {
	// Call sends req from node "from" to node "to" and waits for the reply.
	Call(ctx context.Context, from, to proto.NodeID, req any) (any, error)
}

// StatsSource is implemented by transports (and decorators) that keep
// Stats counters; decorators merge their inner transport's counters into
// their own snapshot.
type StatsSource interface {
	Stats() Stats
}

// Reply is the outcome of one leg of a multicast.
type Reply struct {
	Node proto.NodeID
	Resp any
	Err  error
}

// MultiCaller is the optional fan-out fast path: a transport that can send
// one request to many nodes more cheaply than n independent Calls (the TCP
// transport serializes the request once and writes the frames to every
// peer's multiplexed connection). Multicast uses it when available.
// Decorators deliberately do not implement it, so a decorated transport
// falls back to per-call delivery and every call still passes through the
// decorator's injection/retry logic.
type MultiCaller interface {
	CallMany(ctx context.Context, from proto.NodeID, nodes []proto.NodeID, req any) []Reply
}

// Multicast sends req to every node in nodes in parallel and collects all
// replies. The quorum protocols need every reply (reads pick the highest
// version; commits need unanimity), so Multicast always waits for all legs.
func Multicast(ctx context.Context, t Transport, from proto.NodeID, nodes []proto.NodeID, req any) []Reply {
	if mc, ok := t.(MultiCaller); ok {
		return mc.CallMany(ctx, from, nodes, req)
	}
	return MulticastEach(ctx, t, from, nodes, func(proto.NodeID) any { return req })
}

// MulticastEach is Multicast with a per-destination request: build(n) is
// called once per node before its leg is sent. Delta-validated batched reads
// use it, since each quorum member has its own validation watermark and
// therefore receives a different footprint suffix.
//
// The last leg runs on the caller's goroutine, so a one-member round (the
// read quorum of an intact tree is its root alone) spawns nothing.
func MulticastEach(ctx context.Context, t Transport, from proto.NodeID, nodes []proto.NodeID, build func(proto.NodeID) any) []Reply {
	replies := make([]Reply, len(nodes))
	if len(nodes) == 0 {
		return replies
	}
	call := func(i int, n proto.NodeID, req any) {
		resp, err := t.Call(ctx, from, n, req)
		replies[i] = Reply{Node: n, Resp: resp, Err: err}
	}
	var wg sync.WaitGroup
	last := len(nodes) - 1
	for i, n := range nodes[:last] {
		wg.Add(1)
		go func(i int, n proto.NodeID, req any) {
			defer wg.Done()
			call(i, n, req)
		}(i, n, build(n))
	}
	call(last, nodes[last], build(nodes[last]))
	wg.Wait()
	return replies
}

// LatencyModel yields the one-way message delay between two nodes. A Call
// pays the delay twice (request plus reply).
type LatencyModel interface {
	OneWay(from, to proto.NodeID) time.Duration
}

// ZeroLatency delivers messages instantly. Unit tests use it so protocol
// logic can be exercised without wall-clock cost.
type ZeroLatency struct{}

// OneWay implements LatencyModel.
func (ZeroLatency) OneWay(_, _ proto.NodeID) time.Duration { return 0 }

// UniformLatency applies a base one-way delay plus uniform jitter in
// [0, Jitter) to every message, local calls included.
type UniformLatency struct {
	Base   time.Duration
	Jitter time.Duration
}

// OneWay implements LatencyModel.
func (l UniformLatency) OneWay(_, _ proto.NodeID) time.Duration {
	d := l.Base
	if l.Jitter > 0 {
		d += time.Duration(rand.Int64N(int64(l.Jitter)))
	}
	return d
}

// Stats is a snapshot of transport-level accounting.
//
// Message accounting: a successful call counts two messages (request plus
// reply). A failed call counts exactly one — the request that went
// unanswered; there is no reply leg to charge, and the failure-detection
// wait is time, not traffic.
// Decorator contract: every decorator's Stats() starts from its inner
// transport's snapshot (when the inner is a StatsSource) and adds only its
// own counters, so any stacking order — Retry(Fault(Mem)),
// Fault(Retry(Mem)), … — yields the same totals and no layer's counters are
// silently dropped. stats_test.go holds the conformance test.
type Stats struct {
	Messages uint64 // delivered requests and replies (one each; failed calls count one)
	Bytes    uint64 // TCP frame bytes moved; 0 on MemTransport, which encodes nothing
	Calls    uint64 // request/reply exchanges attempted
	Failed   uint64 // calls that returned an error (ErrNodeDown, transient faults, cancellation)
	Retries  uint64 // attempts re-issued by RetryTransport after a transient fault or timeout
	Timeouts uint64 // attempts cut short by RetryTransport's per-call timeout

	// Fault-injection counters contributed by FaultTransport decorators.
	Dropped     uint64 // requests failed by injected drops
	Duplicated  uint64 // requests delivered twice by injected duplication
	Partitioned uint64 // requests failed by injected link partitions
}

// merge returns s plus o field-wise (decorators fold inner snapshots in).
func (s Stats) merge(o Stats) Stats {
	return Stats{
		Messages:    s.Messages + o.Messages,
		Bytes:       s.Bytes + o.Bytes,
		Calls:       s.Calls + o.Calls,
		Failed:      s.Failed + o.Failed,
		Retries:     s.Retries + o.Retries,
		Timeouts:    s.Timeouts + o.Timeouts,
		Dropped:     s.Dropped + o.Dropped,
		Duplicated:  s.Duplicated + o.Duplicated,
		Partitioned: s.Partitioned + o.Partitioned,
	}
}

// MemTransport is the in-process simulated network. Every registered node is
// served by its Handler; Call optionally serializes each sender's outgoing
// transmissions (so a k-node multicast pays ~k transmit slots, reproducing
// the multicast-vs-unicast cost gap of the paper's JGroups testbed), applies
// the latency model on both legs, optionally serializes requests per
// destination node (modelling a replica's bounded service capacity), counts
// messages, and honours crash-failure injection.
//
// Timing granularity: the simulator sleeps, and the platform's sleep
// quantum (~1 ms on a stock Linux tick) is the effective time unit —
// configure delays in milliseconds, not microseconds.
type MemTransport struct {
	latency     LatencyModel
	txTime      time.Duration
	serviceTime time.Duration
	failTimeout time.Duration

	mu       sync.RWMutex
	handlers map[proto.NodeID]Handler
	down     map[proto.NodeID]bool
	service  map[proto.NodeID]*sync.Mutex
	senders  map[proto.NodeID]*sync.Mutex

	messages atomic.Uint64
	calls    atomic.Uint64
	failed   atomic.Uint64
}

// MemOption configures a MemTransport.
type MemOption func(*MemTransport)

// WithLatency sets the latency model (default ZeroLatency).
func WithLatency(l LatencyModel) MemOption {
	return func(t *MemTransport) { t.latency = l }
}

// WithServiceTime serializes request processing per destination node with
// the given per-request service delay, modelling a replica's bounded
// capacity. Zero (the default) disables serialization entirely.
func WithServiceTime(d time.Duration) MemOption {
	return func(t *MemTransport) { t.serviceTime = d }
}

// WithTxTime serializes each sender's outgoing messages with the given
// per-message transmission delay. This is what makes quorum multicasts
// proportionally more expensive than unicasts, as in the paper's testbed
// (~30 ms quorum multicast vs ~5 ms unicast). Zero (the default) disables
// sender serialization.
func WithTxTime(d time.Duration) MemOption {
	return func(t *MemTransport) { t.txTime = d }
}

// WithFailTimeout sets how long a call to a crashed node blocks before
// ErrNodeDown is returned, modelling failure detection by timeout
// (default 1 ms).
func WithFailTimeout(d time.Duration) MemOption {
	return func(t *MemTransport) { t.failTimeout = d }
}

// NewMemTransport builds an empty in-memory network.
func NewMemTransport(opts ...MemOption) *MemTransport {
	t := &MemTransport{
		latency:     ZeroLatency{},
		failTimeout: time.Millisecond,
		handlers:    make(map[proto.NodeID]Handler),
		down:        make(map[proto.NodeID]bool),
		service:     make(map[proto.NodeID]*sync.Mutex),
		senders:     make(map[proto.NodeID]*sync.Mutex),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Register attaches a node's handler to the network. Registering the same
// node twice replaces its handler.
func (t *MemTransport) Register(id proto.NodeID, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[id] = h
	if _, ok := t.service[id]; !ok {
		t.service[id] = &sync.Mutex{}
	}
}

// Fail crashes a node: subsequent calls to it fail with ErrNodeDown after
// the failure-detection timeout.
func (t *MemTransport) Fail(id proto.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[id] = true
}

// Recover brings a crashed node back. Its store still holds whatever it had
// before the crash (crash-recovery semantics); the quorum intersection
// property makes stale state harmless.
func (t *MemTransport) Recover(id proto.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.down, id)
}

// Down reports whether a node is currently crashed.
func (t *MemTransport) Down(id proto.NodeID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.down[id]
}

// Stats returns a snapshot of the transport counters.
func (t *MemTransport) Stats() Stats {
	return Stats{
		Messages: t.messages.Load(),
		Calls:    t.calls.Load(),
		Failed:   t.failed.Load(),
	}
}

// ResetStats zeroes the transport counters (used between experiment phases
// so that benchmark population traffic is not charged to the run).
func (t *MemTransport) ResetStats() {
	t.messages.Store(0)
	t.calls.Store(0)
	t.failed.Store(0)
}

// Call implements Transport.
func (t *MemTransport) Call(ctx context.Context, from, to proto.NodeID, req any) (any, error) {
	t.calls.Add(1)
	t.messages.Add(1) // request leg

	// Sender-side transmission: one message at a time per sender.
	if t.txTime > 0 {
		sm := t.senderMu(from)
		sm.Lock()
		err := sleepCtx(ctx, t.txTime)
		sm.Unlock()
		if err != nil {
			return nil, err
		}
	}
	t.mu.RLock()
	h, ok := t.handlers[to]
	down := t.down[to]
	svc := t.service[to]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no handler for %v", to)
	}
	if down {
		// Failure detection by timeout: the caller's whole wait for a
		// crashed node is failTimeout — the detection budget subsumes the
		// propagation delay, so the down path pays failTimeout *instead of*
		// the request-leg latency (charging both would double-bill failure
		// detection). Only the lost request is counted in Stats.Messages;
		// there is no reply leg.
		t.failed.Add(1)
		if err := sleepCtx(ctx, t.failTimeout); err != nil {
			return nil, err
		}
		return nil, ErrNodeDown
	}
	if err := sleepCtx(ctx, t.latency.OneWay(from, to)); err != nil {
		return nil, err
	}

	var resp any
	if t.serviceTime > 0 && svc != nil {
		// The replica serves one request at a time; holding the lock
		// across the sleep is the queueing model.
		svc.Lock()
		err := sleepCtx(ctx, t.serviceTime)
		if err == nil {
			resp = h(from, req)
		}
		svc.Unlock()
		if err != nil {
			return nil, err
		}
	} else {
		resp = h(from, req)
	}

	t.messages.Add(1) // reply leg
	if err := sleepCtx(ctx, t.latency.OneWay(to, from)); err != nil {
		return nil, err
	}
	return resp, nil
}

func (t *MemTransport) senderMu(from proto.NodeID) *sync.Mutex {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.senders[from]
	if !ok {
		m = &sync.Mutex{}
		t.senders[from] = m
	}
	return m
}

// sleepCtx sleeps for d unless the context is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
