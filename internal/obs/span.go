package obs

import (
	"sync/atomic"
	"time"

	"qrdtm/internal/proto"
)

// idSeed is a per-process base mixed into every span and trace ID so that
// spans recorded by different processes (one per TCP node) never collide
// within a merged trace. splitmix64 of a nanosecond boot stamp gives 64
// well-mixed bits; the low bits of successive IDs then come from idCounter.
var (
	idSeed    = splitmix64(uint64(time.Now().UnixNano()))
	idCounter atomic.Uint64
)

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// allocation-free 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newID returns a fresh nonzero span/trace ID.
func newID() uint64 {
	for {
		if id := splitmix64(idSeed + idCounter.Add(1)); id != 0 {
			return id
		}
	}
}

// SpanBuffer retains completed spans in a bounded lock-free ring: writers
// claim a slot with an atomic counter and store a pointer, readers copy
// slot-by-slot. When the ring wraps, the oldest spans are overwritten (Stats
// counts them as Dropped) — the merger reports such traces as incomplete
// rather than mis-checking them.
type SpanBuffer struct {
	pos  atomic.Uint64
	ring []atomic.Pointer[proto.Span]
}

// NewSpanBuffer builds a buffer keeping the last `size` spans (default 4096).
func NewSpanBuffer(size int) *SpanBuffer {
	if size <= 0 {
		size = 4096
	}
	return &SpanBuffer{ring: make([]atomic.Pointer[proto.Span], size)}
}

// Add retains one completed span.
func (b *SpanBuffer) Add(s proto.Span) {
	if b == nil {
		return
	}
	slot := (b.pos.Add(1) - 1) % uint64(len(b.ring))
	b.ring[slot].Store(&s)
}

// Seen reports how many spans were ever added (overwritten ones included).
func (b *SpanBuffer) Seen() uint64 {
	if b == nil {
		return 0
	}
	return b.pos.Load()
}

// Cap returns the ring's capacity (0 on a nil buffer).
func (b *SpanBuffer) Cap() int {
	if b == nil {
		return 0
	}
	return len(b.ring)
}

// SpanBufStats is the serializable retention summary of a span buffer.
// Dropped counts spans Seen but overwritten by the ring wrapping: nonzero
// means a reader that did not keep up (Spans, SpansSince, the streaming
// auditor) has an incomplete view.
type SpanBufStats struct {
	Seen    uint64 `json:"seen"`
	Dropped uint64 `json:"dropped"`
	Cap     int    `json:"cap"`
}

// Stats summarizes retention from ONE reading of the ring position, so
// Dropped can never exceed Seen however fast writers are adding.
func (b *SpanBuffer) Stats() SpanBufStats {
	st := SpanBufStats{Seen: b.Seen(), Cap: b.Cap()}
	if st.Seen > uint64(st.Cap) {
		st.Dropped = st.Seen - uint64(st.Cap)
	}
	return st
}

// SpansSince returns the spans recorded after the cursor (a value previously
// returned as next, starting from 0), the new cursor, and how many spans in
// the requested range were lost to ring overwrites before they could be
// read. Writers may lap the reader mid-copy under extreme load; a lapped
// slot yields a newer span early, which a later call returns again — callers
// that care deduplicate by span ID (each ID is unique).
func (b *SpanBuffer) SpansSince(cursor uint64) (spans []proto.Span, next uint64, dropped uint64) {
	if b == nil {
		return nil, cursor, 0
	}
	head := b.pos.Load()
	if head <= cursor {
		return nil, cursor, 0
	}
	n := uint64(len(b.ring))
	start := cursor
	if head > n && head-n > start {
		dropped = head - n - start
		start = head - n
	}
	spans = make([]proto.Span, 0, head-start)
	for i := start; i < head; i++ {
		if s := b.ring[i%n].Load(); s != nil {
			spans = append(spans, *s)
		}
	}
	return spans, head, dropped
}

// Spans returns the retained window, oldest first.
func (b *SpanBuffer) Spans() []proto.Span {
	spans, _, _ := b.SpansSince(0)
	return spans
}

// ActiveSpan is an in-flight span. It is a plain value — starting one on a
// nil registry (or with tracing off, or from an invalid remote context)
// yields the inactive zero value, whose every method is an allocation-free
// no-op; the hot path calls unconditionally.
type ActiveSpan struct {
	buf *SpanBuffer
	s   proto.Span
}

// Active reports whether the span will be recorded.
func (a *ActiveSpan) Active() bool { return a.buf != nil }

// Context returns the span's identity for propagation in request messages.
// Inactive spans return the zero context, which replicas ignore.
func (a *ActiveSpan) Context() proto.TraceContext {
	if a.buf == nil {
		return proto.TraceContext{}
	}
	return a.s.Context()
}

// SetTxn records the transaction attempt the span belongs to.
func (a *ActiveSpan) SetTxn(t proto.TxnID) {
	if a.buf != nil {
		a.s.Txn = t
	}
}

// SetObj records the object the span operated on.
func (a *ActiveSpan) SetObj(o proto.ObjectID) {
	if a.buf != nil {
		a.s.Obj = o
	}
}

// SetVersion records the object version the span observed or installed.
func (a *ActiveSpan) SetVersion(v proto.Version) {
	if a.buf != nil {
		a.s.Version = v
	}
}

// SetDepth records the nesting depth (or abort target depth).
func (a *ActiveSpan) SetDepth(d int) {
	if a.buf != nil {
		a.s.Depth = d
	}
}

// SetChk records the checkpoint epoch (or rollback target epoch).
func (a *ActiveSpan) SetChk(c int) {
	if a.buf != nil {
		a.s.Chk = c
	}
}

// SetOK records the span's outcome.
func (a *ActiveSpan) SetOK(ok bool) {
	if a.buf != nil {
		a.s.OK = ok
	}
}

// SetNote attaches a free-form annotation.
func (a *ActiveSpan) SetNote(n string) {
	if a.buf != nil {
		a.s.Note = n
	}
}

// SetShard records the shard the span's quorum round targeted (sharded runs
// only; negative ids no-op, so unsharded spans stay untagged).
func (a *ActiveSpan) SetShard(id proto.ShardID) {
	if a.buf != nil {
		a.s.SetShard(id)
	}
}

// AddItem appends one touched object (installed writes on commit/decide).
func (a *ActiveSpan) AddItem(o proto.ObjectID, v proto.Version) {
	if a.buf != nil {
		a.s.Items = append(a.s.Items, proto.SpanItem{Obj: o, Version: v})
	}
}

// End stamps the end time and retains the span. Safe to call once; inactive
// spans no-op. Call via defer where the enclosing code can panic (the
// engine's abort path unwinds by panic), so spans are never lost.
func (a *ActiveSpan) End() {
	if a.buf == nil {
		return
	}
	a.s.End = time.Now().UnixNano()
	a.buf.Add(a.s)
	a.buf = nil
}

// WithSpans attaches a span buffer, enabling distributed tracing, and
// returns the registry. Attach before handing the registry to runtimes; the
// field is read unsynchronized on the hot path.
func (r *Registry) WithSpans(b *SpanBuffer) *Registry {
	if r != nil {
		r.spans = b
	}
	return r
}

// Spans returns the attached span buffer (nil when tracing is off).
func (r *Registry) Spans() *SpanBuffer {
	if r == nil {
		return nil
	}
	return r.spans
}

// Tracing reports whether span recording is enabled.
func (r *Registry) Tracing() bool { return r != nil && r.spans != nil }

// StartSpan opens a client-side span under parent. A zero parent starts a
// new trace (fresh trace ID). Inactive (zero ActiveSpan) when the registry
// is nil or has no span buffer.
func (r *Registry) StartSpan(kind proto.SpanKind, node proto.NodeID, parent proto.TraceContext) ActiveSpan {
	if r == nil || r.spans == nil {
		return ActiveSpan{}
	}
	trace := parent.Trace
	if trace == 0 {
		trace = newID()
	}
	return ActiveSpan{
		buf: r.spans,
		s: proto.Span{
			Trace:  trace,
			ID:     newID(),
			Parent: parent.Span,
			Node:   node,
			Kind:   kind,
			Start:  time.Now().UnixNano(),
		},
	}
}

// StartRemoteSpan opens a replica-side serve span as a child of the
// request's trace context. Inactive when tracing is off locally or the
// request carries no context (untraced client), so replicas never record
// orphan spans.
func (r *Registry) StartRemoteSpan(kind proto.SpanKind, node proto.NodeID, tc proto.TraceContext) ActiveSpan {
	if r == nil || r.spans == nil || !tc.Valid() {
		return ActiveSpan{}
	}
	return ActiveSpan{
		buf: r.spans,
		s: proto.Span{
			Trace:  tc.Trace,
			ID:     newID(),
			Parent: tc.Span,
			Node:   node,
			Kind:   kind,
			Start:  time.Now().UnixNano(),
		},
	}
}
