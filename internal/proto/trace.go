package proto

import "fmt"

// TraceContext is the causal context piggybacked on every request message.
// Trace identifies one root transaction's distributed trace; Span is the
// client-side span that issued the request (the replica-side serve span
// records it as its parent); Parent is the issuing span's own parent, kept
// so a partial collection can still be ordered. The zero value means
// "tracing off": replicas must not record spans for it.
//
// The context travels inside the request structs themselves, so every
// transport — MemTransport, TCP, and the retry/fault wrappers, which all
// pass requests through opaquely — propagates it without knowing it exists.
// The codec writes a zero context as one presence byte, so untraced runs pay
// almost nothing extra on the wire.
type TraceContext struct {
	Trace  uint64
	Span   uint64
	Parent uint64
}

// Valid reports whether the context belongs to an active trace.
func (tc TraceContext) Valid() bool { return tc.Trace != 0 }

// SpanKind classifies a span in the QR-DTM taxonomy. Client-side kinds are
// opened by internal/core; serve-side kinds by internal/server.
type SpanKind int

const (
	// SpanRoot covers one call to Atomic/AtomicSteps: every attempt,
	// backoff and the final commit or give-up.
	SpanRoot SpanKind = iota
	// SpanAttempt covers one attempt of a root transaction (one TxnID).
	SpanAttempt
	// SpanCT covers one attempt of a closed-nested subtransaction.
	SpanCT
	// SpanRead covers one read-quorum multicast round (Rqv included).
	SpanRead
	// SpanCommit covers the commit protocol: prepare multicast through the
	// decide multicast. Items carries the installed writes on success.
	SpanCommit
	// SpanAbort marks an abort decision; Depth/Chk carry the routed target.
	SpanAbort
	// SpanCheckpoint marks taking a checkpoint (Chk = new epoch).
	SpanCheckpoint
	// SpanRollback marks a checkpoint rollback (Chk = target epoch).
	SpanRollback
	// SpanServeRead is a replica serving one ReadReq (validation + fetch).
	SpanServeRead
	// SpanServePrepare is a replica voting on one PrepareReq.
	SpanServePrepare
	// SpanServeDecide is a replica applying one DecideReq. Items carries
	// the writes installed on commit.
	SpanServeDecide
	// SpanServeRelease is a replica releasing abstract locks.
	SpanServeRelease

	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	SpanRoot:         "root",
	SpanAttempt:      "attempt",
	SpanCT:           "ct",
	SpanRead:         "read",
	SpanCommit:       "commit",
	SpanAbort:        "abort",
	SpanCheckpoint:   "checkpoint",
	SpanRollback:     "rollback",
	SpanServeRead:    "serve-read",
	SpanServePrepare: "serve-prepare",
	SpanServeDecide:  "serve-decide",
	SpanServeRelease: "serve-release",
}

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if k < 0 || k >= numSpanKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return spanKindNames[k]
}

// MarshalText renders the kind name in JSON trace dumps. The wire codec
// writes the int, so the wire format stays compact.
func (k SpanKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name produced by MarshalText.
func (k *SpanKind) UnmarshalText(b []byte) error {
	for i, n := range spanKindNames {
		if n == string(b) {
			*k = SpanKind(i)
			return nil
		}
	}
	return fmt.Errorf("proto: unknown span kind %q", b)
}

// SpanItem is one object touched by a span (commit/decide installed writes).
type SpanItem struct {
	Obj     ObjectID `json:"obj"`
	Version Version  `json:"version"`
}

// Span is one completed span as stored in a node's span buffer and shipped
// by TraceDumpRep. Start/End are UnixNano so spans merged from different
// processes share a clock base (modulo physical clock skew — the checker
// only orders spans whose intervals do not overlap).
type Span struct {
	Trace  uint64   `json:"trace"`
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Node   NodeID   `json:"node"`
	Kind   SpanKind `json:"kind"`
	Start  int64    `json:"start"`
	End    int64    `json:"end"`

	// Protocol payload; zero values are omitted from JSON where possible.
	Txn     TxnID      `json:"txn,omitempty"`
	Obj     ObjectID   `json:"obj,omitempty"`
	Version Version    `json:"version,omitempty"`
	Depth   int        `json:"depth,omitempty"`
	Chk     int        `json:"chk,omitempty"`
	OK      bool       `json:"ok"`
	Note    string     `json:"note,omitempty"`
	Items   []SpanItem `json:"items,omitempty"`
	// Shard is the quorum group the span's round targeted, as (ShardID + 1)
	// so the zero value still means "not shard-tagged" (unsharded runs and
	// spans that touch no particular shard). Use ShardID/SetShard.
	Shard int `json:"shard,omitempty"`
}

// ShardID returns the shard the span was tagged with, or NoShard when the
// span carries no shard tag.
func (s *Span) ShardID() ShardID {
	if s.Shard == 0 {
		return NoShard
	}
	return ShardID(s.Shard - 1)
}

// SetShard tags the span with a shard id (stored off-by-one; see Shard).
func (s *Span) SetShard(id ShardID) {
	if id >= 0 {
		s.Shard = int(id) + 1
	}
}

// Context returns the span's identity as a TraceContext for propagation.
func (s *Span) Context() TraceContext {
	return TraceContext{Trace: s.Trace, Span: s.ID, Parent: s.Parent}
}

// TraceDumpReq asks a replica for the contents of its span buffer (trace
// collection; tests and tooling).
type TraceDumpReq struct{}

// TraceDumpRep answers TraceDumpReq with the replica's buffered spans.
type TraceDumpRep struct {
	Node  NodeID
	Spans []Span
}
