// Package proto defines the fundamental identifiers, object model and wire
// messages shared by every component of the QR-DTM stack: clients (the
// transaction engine in internal/core), replica servers (internal/server),
// and the baseline DTM implementations (internal/tfa, internal/decent).
//
// All messages are plain data structs so that they can travel over the
// in-memory simulated transport unchanged and over TCP in the binary codec
// of codec.go.
package proto

import (
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// NodeID identifies a replica (or client-hosting) node in the cluster.
// Nodes are numbered 0..N-1 and arranged in a logical ternary tree in heap
// order (children of i are 3i+1, 3i+2, 3i+3).
type NodeID int

// ObjectID names a shared transactional object.
type ObjectID string

// Version is a monotonically increasing per-object commit counter. Version 0
// means "never written"; the first commit installs version 1.
type Version uint64

// TxnID identifies one attempt of a root transaction. Each retry of a root
// transaction allocates a fresh TxnID, so replica-side metadata (PR/PW lists,
// protected flags) never confuses two attempts.
type TxnID uint64

// NoChk is the sentinel checkpoint epoch used by non-checkpointed
// transactions in DataItem.OwnerChk and in abort replies.
const NoChk = -1

// NoDepth is the sentinel owner depth meaning "no abort target" in replies.
const NoDepth = -1

// Value is the payload stored in a transactional object. Implementations
// must provide a deep copy so that replicas and transactions never alias
// mutable state. Values other than the stock kinds of values.go that cross
// the TCP transport or the WAL must also implement BinaryValue and be
// registered with RegisterValue.
type Value interface {
	CloneValue() Value
}

// ObjectCopy is one replica's copy of an object as shipped to a client, or a
// client's buffered write as shipped to the write quorum.
type ObjectCopy struct {
	ID      ObjectID
	Version Version
	Val     Value
}

// Clone deep-copies the object copy (the Value included).
func (c ObjectCopy) Clone() ObjectCopy {
	out := c
	if c.Val != nil {
		out.Val = c.Val.CloneValue()
	}
	return out
}

// DataItem describes one entry of a transaction's read-set or write-set for
// the purposes of read-quorum validation (Rqv). OwnerDepth is the nesting
// depth of the (sub)transaction that acquired the object (0 = root); the
// shallowest invalid owner becomes the abort target under closed nesting.
// OwnerChk is the checkpoint epoch during which the object was acquired
// (QR-CHK); the minimum invalid epoch becomes the rollback target.
type DataItem struct {
	ID         ObjectID
	Version    Version
	OwnerDepth int
	OwnerChk   int
}

// ReadReq asks a read-quorum node for its copy of one object, and — when
// DataSet is non-nil — asks it to first validate the requester's footprint
// (Rqv). Write marks the request as acquiring a writable copy, which only
// affects which potential-conflict list (PR vs PW) the root is recorded in.
// An empty Obj requests validation only (no fetch): flat transactions use
// it to tell a genuine application error apart from a crash caused by an
// inconsistent (zombie) snapshot.
type ReadReq struct {
	Txn     TxnID
	Obj     ObjectID
	Write   bool
	Depth   int          // nesting depth of the requester; 0 means root — only roots are recorded in PR/PW (Algorithm 2, line 17)
	DataSet []DataItem   // nil: plain QR read without incremental validation
	TC      TraceContext // causal trace context (zero when tracing is off)
}

// ReadRep is a replica's answer to ReadReq. If OK, Copy holds the replica's
// current committed copy. Otherwise AbortDepth (and, for checkpointed
// transactions, AbortChk) identify the partial-abort target computed by the
// validation procedure (Algorithm 1 / Algorithm 4 in the paper).
type ReadRep struct {
	OK         bool
	Copy       ObjectCopy
	AbortDepth int
	AbortChk   int
	// LockOnly qualifies a denial: every conflict was a pending commit's
	// lock, none a committed newer version (contention-manager input).
	LockOnly bool
	// WrongShard qualifies a denial: the replica does not own the requested
	// object (or one of the footprint items it was asked to certify) under
	// its current shard map, or the object's slot is mid-migration. The
	// requester must refresh its shard map and re-route.
	WrongShard bool
}

// BatchReadReq is the multi-object, delta-validated generalisation of
// ReadReq: it asks a read-quorum node for its copies of every object in Objs
// in one round, and — when Rqv is set — carries only the *suffix* of the
// requester's footprint this replica has not validated yet. The replica
// keeps a per-transaction validation session (the footprint entries it has
// accepted so far, in log order); From is the requester's watermark for this
// replica — the length of the session prefix both sides agree on — and Delta
// holds the footprint log entries starting at offset From. The replica
// reconciles by truncating its session to From and appending Delta, then
// validates the *entire* session, so a positive reply means the whole
// accumulated footprint is still valid — exactly the guarantee the
// full-footprint ReadReq gives, at O(delta) instead of O(footprint) bytes.
type BatchReadReq struct {
	Txn   TxnID
	Objs  []ObjectID
	Write bool
	Depth int // nesting depth of the requester; 0 means root (PR/PW recording, as in ReadReq)
	// Rqv requests validation. It is explicit (rather than Delta != nil as
	// in ReadReq) because gob does not preserve nil-vs-empty for slices.
	Rqv   bool
	From  int          // validation watermark: footprint log entries [0, From) were already shipped to this replica
	Delta []DataItem   // footprint log entries [From, From+len(Delta))
	TC    TraceContext // causal trace context (zero when tracing is off)
}

// BatchReadRep answers BatchReadReq. If OK, Copies holds the replica's
// committed copies in Objs order. NeedFull reports that the replica has no
// session prefix of length From (it restarted, or evicted the session): the
// requester must reset its watermark for this replica and resend the whole
// footprint. Denials carry the same abort-routing answer as ReadRep.
type BatchReadRep struct {
	OK         bool
	Copies     []ObjectCopy
	AbortDepth int
	AbortChk   int
	LockOnly   bool
	NeedFull   bool
	// WrongShard: as in ReadRep — the replica no longer owns one of the
	// requested objects (stale client map, or mid-migration fence).
	WrongShard bool
	// Prefetch holds copies of objects the returned copies link to (see
	// Linker), followed breadth-first on an OK reply. Nothing has read them
	// yet: the replica records no potential reader or writer for them.
	Prefetch []ObjectCopy
}

// PrepareReq is phase one of the two-phase commit sent to the write quorum.
// Reads carries the read-set versions to validate; Writes carries the
// buffered writes with the version at which each object was acquired
// (validation) — the new value is installed by DecideReq on commit.
type PrepareReq struct {
	Txn    TxnID
	Reads  []DataItem
	Writes []ObjectCopy
	// AbsLocks are abstract locks to acquire for open nesting: they are
	// granted to Owner (the root transaction) and survive this commit,
	// until an explicit ReleaseReq — the TFA-ON mechanism adapted to
	// quorums. Pairwise-intersecting write quorums make the grant mutually
	// exclusive.
	AbsLocks []string
	// Owner is the root transaction that holds AbsLocks (zero when no
	// abstract locks are requested).
	Owner TxnID
	TC    TraceContext // causal trace context (zero when tracing is off)
}

// PrepareRep is a write-quorum node's vote.
type PrepareRep struct {
	OK bool
	// WrongShard qualifies a No vote: the replica does not own every object
	// in the prepare under its current shard map (stale client routing, or a
	// slot fenced mid-migration). The coordinator refreshes its map and
	// retries the transaction rather than counting this as a conflict.
	WrongShard bool
}

// DecideReq is phase two of the commit protocol: Commit==true installs
// Writes (whose Version fields now carry the *new* version) and releases the
// locks; Commit==false only releases the locks taken by the prepare.
type DecideReq struct {
	Txn    TxnID
	Commit bool
	Writes []ObjectCopy
	TC     TraceContext // causal trace context (zero when tracing is off)
}

// DecideRep acknowledges a DecideReq.
type DecideRep struct{}

// ReleaseReq releases every abstract lock held by a root transaction
// (sent to the write quorum when the root finally commits or gives up).
type ReleaseReq struct {
	Owner TxnID
	TC    TraceContext // causal trace context (zero when tracing is off)
}

// ReleaseRep acknowledges a ReleaseReq.
type ReleaseRep struct{}

// LoadReq asks a replica to install an object unconditionally (cluster
// bootstrap / benchmark population). It bypasses concurrency control and is
// only sent while no transactions run.
type LoadReq struct {
	Objects []ObjectCopy
}

// LoadRep acknowledges a LoadReq.
type LoadRep struct{}

// DumpReq asks a replica for its committed copy of an object without any
// transactional bookkeeping (tests and tooling only).
type DumpReq struct {
	Obj ObjectID
}

// DumpRep answers DumpReq. OK is false if the replica has no copy.
type DumpRep struct {
	OK   bool
	Copy ObjectCopy
}

// BinaryValue is an application-defined Value that encodes itself, in the
// shape of encoding.BinaryAppender: AppendBinary appends the value's encoding
// to b and returns the extended slice.
type BinaryValue interface {
	Value
	AppendBinary(b []byte) ([]byte, error)
}

// Linker is an optional interface for values that point at other objects (a
// list node's successor, a bucket head's first node). A replica answering a
// batched read follows the links of the copies it returns and ships the
// linked copies along, so a traversal costs one read round instead of one
// per hop. AppendLinks appends the ids of the linked objects to dst and
// returns the extended slice.
type Linker interface {
	AppendLinks(dst []ObjectID) []ObjectID
}

// ValueDecoder rebuilds a registered value from exactly the bytes its
// AppendBinary wrote. It must copy whatever it keeps out of b (codec buffers
// are reused) and return an error, never panic, for input it did not write.
type ValueDecoder func(b []byte) (Value, error)

// RegisterValue registers an application-defined Value under a one-byte tag
// so that it can cross the TCP transport and the WAL inside ObjectCopy: the
// codec writes the tag and then v's own AppendBinary encoding, and decodes
// with decode. Tags are process-wide and must be unique. The in-memory
// transport needs no registration.
//
// A registered value may also implement Linker, so that batched reads ship
// the objects it points at.
//
// RegisterValue panics on a nil value or decoder, on a value that does not
// implement BinaryValue, on one of the stock kinds of values.go (they have
// their own encodings), and on a tag or type that is already registered.
func RegisterValue(tag byte, v Value, decode ValueDecoder) {
	switch v.(type) {
	case nil:
		panic("proto: RegisterValue of a nil value")
	case Int64, Float64, String, Bool, Bytes, Int64Slice, IDSlice:
		panic(fmt.Sprintf("proto: RegisterValue(%T): stock kinds are encoded without registration", v))
	}
	if _, ok := v.(BinaryValue); !ok {
		panic(fmt.Sprintf("proto: RegisterValue(%T): missing method AppendBinary([]byte) ([]byte, error)", v))
	}
	if decode == nil {
		panic(fmt.Sprintf("proto: RegisterValue(%T): nil decoder", v))
	}
	valueRegMu.Lock()
	defer valueRegMu.Unlock()
	old := valueReg.Load()
	next := &valueRegistry{tags: make(map[reflect.Type]byte)}
	if old != nil {
		for t, tg := range old.tags {
			next.tags[t] = tg
		}
		next.decode = old.decode
	}
	typ := reflect.TypeOf(v)
	if next.decode[tag] != nil {
		panic(fmt.Sprintf("proto: RegisterValue(%T): tag %d is already taken", v, tag))
	}
	if prev, ok := next.tags[typ]; ok {
		panic(fmt.Sprintf("proto: RegisterValue(%T): already registered under tag %d", v, prev))
	}
	next.tags[typ] = tag
	next.decode[tag] = decode
	valueReg.Store(next)
	// WAL snapshots and the messages outside the binary codec still carry
	// values through gob.
	gob.Register(v)
}

// valueRegistry maps registered application types to their tags and tags to
// their decoders. It is copied on write, so the codec reads it without a
// lock; a nil registry has nothing registered.
type valueRegistry struct {
	tags   map[reflect.Type]byte
	decode [256]ValueDecoder
}

var (
	valueRegMu sync.Mutex
	valueReg   atomic.Pointer[valueRegistry]
)

func (r *valueRegistry) tagOf(v Value) (byte, bool) {
	if r == nil {
		return 0, false
	}
	tag, ok := r.tags[reflect.TypeOf(v)]
	return tag, ok
}

func (r *valueRegistry) decoder(tag byte) ValueDecoder {
	if r == nil {
		return nil
	}
	return r.decode[tag]
}

func init() {
	gob.Register(ReadReq{})
	gob.Register(ReadRep{})
	gob.Register(BatchReadReq{})
	gob.Register(BatchReadRep{})
	gob.Register(PrepareReq{})
	gob.Register(PrepareRep{})
	gob.Register(DecideReq{})
	gob.Register(DecideRep{})
	gob.Register(ReleaseReq{})
	gob.Register(ReleaseRep{})
	gob.Register(LoadReq{})
	gob.Register(LoadRep{})
	gob.Register(DumpReq{})
	gob.Register(DumpRep{})
	// The stock kinds have their own binary encodings (codec.go); gob only
	// needs them for the messages and snapshots that still travel as gob.
	for _, v := range []Value{Int64(0), Float64(0), String(""), Bool(false), Bytes(nil), Int64Slice(nil), IDSlice(nil)} {
		gob.Register(v)
	}
}

func (n NodeID) String() string   { return fmt.Sprintf("n%d", int(n)) }
func (t TxnID) String() string    { return fmt.Sprintf("t%d", uint64(t)) }
func (o ObjectID) String() string { return string(o) }
