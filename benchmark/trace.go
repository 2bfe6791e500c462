package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"qrdtm/internal/cluster"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

// The traced pass records three kinds of span, all from this file — nothing
// is added inside the program:
//
//	txn           around Atomic/AtomicSteps, per client (the sample)
//	cluster.call  around Transport.Call / CallMany, per client; parent = that
//	              client's open txn
//	server.handle around Replica.Handle, per node; parent = the cluster.call
//	              with the same TxnID that contains it (one process, one clock)
//
// A quorum round is one CallMany (prepare, decide) or the legs of one
// MulticastEach (delta-validated reads go out as per-node Calls). A round
// waits for its slowest member, so its serve time is the longest handle span
// inside it and the rest of the round is `net`: encode, mux queue, loopback,
// decode, scheduling. A transaction's core self time is its span minus its
// rounds, so the parts add up to the txn span by construction.

type roundKind uint8

const (
	roundRead roundKind = iota
	roundPrepare
	roundDecide
	numRoundKinds
)

var roundNames = [numRoundKinds]string{"read", "prepare", "decide"}

// classify tags a request by the round it belongs to; other traffic (loads,
// dumps) is not traced.
func classify(req any) (roundKind, proto.TxnID, bool) {
	switch m := req.(type) {
	case proto.BatchReadReq:
		return roundRead, m.Txn, true
	case proto.ReadReq:
		return roundRead, m.Txn, true
	case proto.PrepareReq:
		return roundPrepare, m.Txn, true
	case proto.DecideReq:
		return roundDecide, m.Txn, true
	}
	return 0, 0, false
}

const multicastNode = -1

type callSpan struct {
	seq        int32 // index of the client's open txn span
	kind       roundKind
	node       int16 // destination, or multicastNode for a CallMany
	txn        proto.TxnID
	start, end time.Duration
}

type handleSpan struct {
	kind       roundKind
	node       int16
	txn        proto.TxnID
	start, end time.Duration
}

// spanBuf is a fixed-capacity, append-only span buffer that lives outside
// the Go heap. Tens of megabytes of spans on the heap would raise the
// collector's heap target and make GC cycles rarer, so an allocation-heavy
// workload ran measurably *faster* traced than untraced; anonymous mapped
// memory is invisible to the GC pacer, and only the pages actually written
// become resident. T must not contain pointers.
type spanBuf[T any] struct {
	mu      sync.Mutex // spans of one client or node arrive on concurrent goroutines
	mem     []byte
	spans   []T // len = spans recorded, cap = capacity
	dropped int
}

func newSpanBuf[T any](capacity int) (*spanBuf[T], error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, capacity*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping a span buffer: %w", err)
	}
	return &spanBuf[T]{mem: mem, spans: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), capacity)[:0]}, nil
}

func (b *spanBuf[T]) add(s T) {
	b.mu.Lock()
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, s)
	} else {
		b.dropped++
	}
	b.mu.Unlock()
}

func (b *spanBuf[T]) free() {
	b.spans = nil
	_ = syscall.Munmap(b.mem)
}

type clientTrace struct {
	seq   atomic.Int32 // the open txn span; set by the client before each transaction
	calls *spanBuf[callSpan]
}

// tracer holds one traced pass's spans in memory.
type tracer struct {
	epoch   time.Time
	clients []*clientTrace
	nodes   []*spanBuf[handleSpan]
}

// spansPerSecond sizes the buffers: several times what the busiest node (the
// one-member read quorum) or client records on the fastest workload.
const spansPerSecond = 1 << 16

func newTracer(clients, nodes int, length time.Duration) (*tracer, error) {
	capacity := int(length.Seconds()+1) * spansPerSecond
	t := &tracer{clients: make([]*clientTrace, clients), nodes: make([]*spanBuf[handleSpan], nodes)}
	for i := range t.clients {
		buf, err := newSpanBuf[callSpan](capacity)
		if err != nil {
			return nil, err
		}
		t.clients[i] = &clientTrace{calls: buf}
	}
	for i := range t.nodes {
		buf, err := newSpanBuf[handleSpan](capacity)
		if err != nil {
			return nil, err
		}
		t.nodes[i] = buf
	}
	return t, nil
}

// free unmaps the span buffers; the tracer is unusable afterwards.
func (t *tracer) free() {
	for _, ct := range t.clients {
		ct.calls.free()
	}
	for _, nt := range t.nodes {
		nt.free()
	}
}

func (t *tracer) dropped() int {
	n := 0
	for _, ct := range t.clients {
		n += ct.calls.dropped
	}
	for _, nt := range t.nodes {
		n += nt.dropped
	}
	return n
}

// wrapHandler times Replica.Handle from outside.
func (t *tracer) wrapHandler(node proto.NodeID, h cluster.Handler) cluster.Handler {
	nt := t.nodes[node]
	return func(from proto.NodeID, req any) any {
		kind, txn, ok := classify(req)
		if !ok {
			return h(from, req)
		}
		start := time.Since(t.epoch)
		resp := h(from, req)
		nt.add(handleSpan{kind: kind, node: int16(node), txn: txn, start: start, end: time.Since(t.epoch)})
		return resp
	}
}

// multiTransport is what the timing wrapper needs from the transport under
// it — and what it offers in turn, so core takes the same code path (one
// encode per multicast) traced and untraced.
type multiTransport interface {
	cluster.Transport
	cluster.MultiCaller
	cluster.StatsSource
}

// tracedTransport is one client's view of the shared transport.
type tracedTransport struct {
	inner multiTransport
	t     *tracer
	ct    *clientTrace
}

var _ multiTransport = (*tracedTransport)(nil)

func (t *tracer) wrapTransport(client int, inner multiTransport) *tracedTransport {
	return &tracedTransport{inner: inner, t: t, ct: t.clients[client]}
}

func (tt *tracedTransport) record(kind roundKind, node int16, txn proto.TxnID, start time.Duration) {
	tt.ct.calls.add(callSpan{seq: tt.ct.seq.Load(), kind: kind, node: node, txn: txn, start: start, end: time.Since(tt.t.epoch)})
}

// Call implements cluster.Transport.
func (tt *tracedTransport) Call(ctx context.Context, from, to proto.NodeID, req any) (any, error) {
	kind, txn, ok := classify(req)
	start := time.Since(tt.t.epoch)
	resp, err := tt.inner.Call(ctx, from, to, req)
	if ok {
		tt.record(kind, int16(to), txn, start)
	}
	return resp, err
}

// CallMany implements cluster.MultiCaller by forwarding to the inner
// transport's fan-out; a decorator without it is silently downgraded to
// per-call delivery.
func (tt *tracedTransport) CallMany(ctx context.Context, from proto.NodeID, nodes []proto.NodeID, req any) []cluster.Reply {
	kind, txn, ok := classify(req)
	start := time.Since(tt.t.epoch)
	replies := tt.inner.CallMany(ctx, from, nodes, req)
	if ok {
		tt.record(kind, multicastNode, txn, start)
	}
	return replies
}

// Stats implements cluster.StatsSource: the wrapper keeps no counters of its
// own, so the snapshot is the inner transport's.
func (tt *tracedTransport) Stats() cluster.Stats { return tt.inner.Stats() }

// ---- analysis ----

// round is one quorum round of one transaction.
type round struct {
	kind       roundKind
	txn        proto.TxnID
	start, end time.Duration
	serve      time.Duration // longest handle span inside the round
	nodes      []int16       // read legs seen so far (nil for a CallMany round)
}

// rounds groups one transaction's call spans. Rounds are sequential (core
// waits for every leg before going on), so sorted by start a round's legs
// are contiguous; a new round begins where the kind changes, a CallMany
// appears, or a destination repeats (each round asks a node at most once).
func rounds(calls []callSpan) []round {
	slices.SortFunc(calls, func(a, b callSpan) int { return int(a.start - b.start) })
	var out []round
	for _, c := range calls {
		if n := len(out); n > 0 && c.node != multicastNode && out[n-1].nodes != nil &&
			out[n-1].kind == c.kind && out[n-1].txn == c.txn && !slices.Contains(out[n-1].nodes, c.node) {
			r := &out[n-1]
			r.end = max(r.end, c.end)
			r.nodes = append(r.nodes, c.node)
			continue
		}
		r := round{kind: c.kind, txn: c.txn, start: c.start, end: c.end}
		if c.node != multicastNode {
			r.nodes = []int16{c.node}
		}
		out = append(out, r)
	}
	return out
}

// budgetParts are the pieces a transaction's span is split into.
var budgetParts = []string{
	"core_self", "read_net", "read_serve", "prepare_net", "prepare_serve", "decide_net", "decide_serve",
}

// traceSummary is the aggregate of one traced pass.
type traceSummary struct {
	metrics metricSet
	budget  map[string]float64 // mean share of the txn span, summing to 1
}

// summarize stitches the spans of every transaction committed inside the
// measured window and aggregates them. dumpPath, when set, receives the
// spans of the first dumpTxns transactions.
func (r *passResult) summarizeTrace(dumpPath string) (traceSummary, error) {
	const dumpTxns = 2000
	from, to := r.window()
	tr := r.trace
	if n := tr.dropped(); n > 0 {
		return traceSummary{}, fmt.Errorf("traced pass of %s overflowed its span buffers by %d spans", r.opts.def.name, n)
	}

	// Handle spans indexed by transaction id.
	var handles []handleSpan
	for _, nt := range tr.nodes {
		handles = append(handles, nt.spans...)
	}
	slices.SortFunc(handles, func(a, b handleSpan) int {
		if a.txn != b.txn {
			if a.txn < b.txn {
				return -1
			}
			return 1
		}
		return int(a.start - b.start)
	})
	handlesOf := func(txn proto.TxnID) []handleSpan {
		lo, _ := slices.BinarySearchFunc(handles, txn, func(h handleSpan, t proto.TxnID) int {
			if h.txn < t {
				return -1
			}
			return 1 // never "equal": lands on the first span of txn
		})
		hi := lo
		for hi < len(handles) && handles[hi].txn == txn {
			hi++
		}
		return handles[lo:hi]
	}

	var dump []dumpSpan
	var self, net []time.Duration
	var rtt [numRoundKinds][]time.Duration
	var part [7]time.Duration
	var span time.Duration
	commits := 0
	for c, ct := range tr.clients {
		// Calls are appended as they return and a client has one transaction
		// open, so they are in txn order and one txn's calls are contiguous.
		calls := ct.calls.spans
		for seq, s := range r.samples[c] {
			n := 0
			for n < len(calls) && int(calls[n].seq) == seq {
				n++
			}
			mine := calls[:n]
			calls = calls[n:]
			if s.failed || s.end < from || s.end >= to {
				continue
			}
			rs := rounds(mine)
			var inRounds, txnNet time.Duration
			for i := range rs {
				rd := &rs[i]
				for _, h := range handlesOf(rd.txn) {
					if h.kind == rd.kind && h.start >= rd.start && h.end <= rd.end {
						rd.serve = max(rd.serve, h.end-h.start)
					}
				}
				d := rd.end - rd.start
				inRounds += d
				txnNet += d - rd.serve
				rtt[rd.kind] = append(rtt[rd.kind], d)
				part[1+2*int(rd.kind)] += d - rd.serve
				part[2+2*int(rd.kind)] += rd.serve
			}
			d := s.end - s.start
			self = append(self, d-inRounds)
			net = append(net, txnNet)
			part[0] += d - inRounds
			span += d
			if commits++; dumpPath != "" && commits <= dumpTxns {
				dump = appendDump(dump, c, seq, s, mine, handlesOf)
			}
		}
	}
	if commits == 0 {
		return traceSummary{}, fmt.Errorf("traced pass of %s committed nothing inside its window", r.opts.def.name)
	}

	ms := metricSet{}
	pcts := func(prefix string, d []time.Duration) {
		slices.Sort(d)
		ms.put(prefix+"_p50", usec(quantile(d, 0.50)), len(d))
		ms.put(prefix+"_p99", usec(quantile(d, 0.99)), len(d))
	}
	pcts("core.self_us", self)
	pcts("cluster.net_us", net)
	for k, name := range roundNames {
		pcts("cluster."+name+"_rtt_us", rtt[k])
	}

	var serve [numRoundKinds][]time.Duration
	var busy time.Duration
	handled := 0
	for _, h := range handles {
		if h.start < from || h.start >= to {
			continue
		}
		serve[h.kind] = append(serve[h.kind], h.end-h.start)
		busy += h.end - h.start
		handled++
	}
	for k, name := range roundNames {
		pcts("server.serve_"+name+"_us", serve[k])
	}
	ms.put("server.handled_per_txn", float64(handled)/float64(commits), commits)
	ms.put("server.busy_frac", float64(busy)/float64((to-from)*time.Duration(len(tr.nodes))), handled)

	// The obs sites count from boot, so their ratios use the whole pass.
	snap := r.reg.Snapshot()
	all := float64(max(r.final.Commits, 1))
	ms.put("core.backoff_ms_per_commit", float64(snap.Hists[obs.SiteBackoff].Sum)/1e6/all, int(snap.Hists[obs.SiteBackoff].Count))
	for cause, name := range map[obs.AbortCause]string{
		obs.CauseReadValidation: "core.abort_read_validation_per_commit",
		obs.CauseLockDenied:     "core.abort_lock_denied_per_commit",
		obs.CauseCommitConflict: "core.abort_commit_conflict_per_commit",
	} {
		ms.put(name, float64(snap.Aborts[cause.String()])/all, int(r.final.Commits))
	}
	qw := snap.Hists[obs.SiteQueueWait]
	ms.put("cluster.queue_wait_us_p99", usec(time.Duration(qw.P99())), int(qw.Count))
	if r.opts.durable {
		fs := snap.Hists[obs.SiteWALFsync]
		ms.put("wal.fsync_ms_p50", msec(time.Duration(fs.P50())), int(fs.Count))
		ms.put("wal.fsync_ms_p99", msec(time.Duration(fs.P99())), int(fs.Count))
	}

	budget := make(map[string]float64, len(budgetParts))
	for i, name := range budgetParts {
		budget[name] = float64(part[i]) / float64(span)
	}
	if dumpPath != "" {
		b, err := json.Marshal(dump)
		if err != nil {
			return traceSummary{}, err
		}
		if err := os.WriteFile(dumpPath, b, 0o644); err != nil {
			return traceSummary{}, err
		}
	}
	return traceSummary{metrics: ms, budget: budget}, nil
}

// dumpSpan is one span as written to benchmark/out: name, start, end, the
// span that caused it, and the request all of a transaction's spans share.
type dumpSpan struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: a root (txn) span
	Request string  `json:"request"`
	Name    string  `json:"name"`
	Kind    string  `json:"kind,omitempty"`
	Node    int     `json:"node"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

func appendDump(dump []dumpSpan, client, seq int, s sample, calls []callSpan, handlesOf func(proto.TxnID) []handleSpan) []dumpSpan {
	req := fmt.Sprintf("c%d-%d", client, seq)
	next := func() int { return len(dump) + 1 }
	root := next()
	dump = append(dump, dumpSpan{ID: root, Request: req, Name: "txn", Node: client, StartUs: usec(s.start), EndUs: usec(s.end)})
	for _, c := range calls {
		id := next()
		dump = append(dump, dumpSpan{ID: id, Parent: root, Request: req, Name: "cluster.call", Kind: roundNames[c.kind],
			Node: int(c.node), StartUs: usec(c.start), EndUs: usec(c.end)})
		for _, h := range handlesOf(c.txn) {
			if h.kind == c.kind && (c.node == multicastNode || c.node == h.node) && h.start >= c.start && h.end <= c.end {
				dump = append(dump, dumpSpan{ID: next(), Parent: id, Request: req, Name: "server.handle", Kind: roundNames[h.kind],
					Node: int(h.node), StartUs: usec(h.start), EndUs: usec(h.end)})
			}
		}
	}
	return dump
}
