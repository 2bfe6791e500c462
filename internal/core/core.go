// Package core implements the client side of QR-DTM: the transaction engine
// that runs flat (QR), closed-nested (QR-CN) and checkpointed (QR-CHK)
// transactions against a cluster of replicas (internal/server) reached
// through a transport (internal/cluster) using tree quorums
// (internal/quorum).
//
// The engine is the paper's primary contribution:
//
//   - Reads and writable-copy acquisitions go to the read quorum; the
//     highest-versioned reply is the globally latest committed copy
//     (1-copy equivalence via the quorum intersection property).
//   - In every mode except Flat, each read piggybacks the transaction's
//     accumulated footprint for read-quorum validation (Rqv): quorum nodes
//     validate the footprint against their stores and deny the read if any
//     entry is stale, naming the partial-abort target.
//   - Closed-nested transactions (Txn.Nested) keep private read/write sets,
//     commit locally by merging into the parent (no messages), and retry
//     independently when the abort target is their own depth.
//   - Checkpointed transactions snapshot their footprint and program state
//     every CheckpointEvery objects and resume from the checkpoint named by
//     a validation failure instead of restarting.
//   - Root commits run a two-phase protocol over the write quorum; with Rqv
//     enabled, read-only transactions commit locally with zero messages.
package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

// Mode selects the nesting/checkpointing protocol a Runtime executes.
type Mode int

const (
	// Flat is the baseline QR protocol: inner transactions are flattened,
	// no incremental validation, conflicts surface at commit time and abort
	// the whole transaction.
	Flat Mode = iota
	// FlatRqv is an ablation: flat transactions with read-quorum validation
	// on every read (early full aborts, read-only local commits).
	FlatRqv
	// Closed is QR-CN: closed nesting with Rqv and local subtransaction
	// commits.
	Closed
	// Checkpoint is QR-CHK: automatic checkpoint creation with Rqv and
	// partial rollback.
	Checkpoint
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Flat:
		return "flat"
	case FlatRqv:
		return "flat+rqv"
	case Closed:
		return "closed"
	case Checkpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Rqv reports whether the mode performs read-quorum validation on reads.
func (m Mode) Rqv() bool { return m != Flat }

// ErrUnavailable is returned when no quorum can be formed (too many nodes
// down) or the transport cannot reach a required replica even after quorum
// reconfiguration.
var ErrUnavailable = errors.New("core: quorum unavailable")

// ErrTooManyRetries is returned by the atomic runners when Config.MaxRetries
// is exceeded.
var ErrTooManyRetries = errors.New("core: transaction exceeded retry limit")

// IDGen allocates globally unique transaction identifiers. One generator is
// shared by all runtimes of a process; for multi-process (TCP) deployments,
// seed disjoint ranges with NewIDGenAt.
type IDGen struct {
	next atomic.Uint64
}

// NewIDGen returns a generator starting at 1.
func NewIDGen() *IDGen { return NewIDGenAt(1) }

// NewIDGenAt returns a generator whose first issued ID is start.
func NewIDGenAt(start uint64) *IDGen {
	g := &IDGen{}
	g.next.Store(start)
	return g
}

// Next issues a fresh transaction ID.
func (g *IDGen) Next() proto.TxnID {
	return proto.TxnID(g.next.Add(1) - 1)
}

// Config assembles a Runtime.
type Config struct {
	// Node is the identity of the node hosting this runtime's transactions.
	Node proto.NodeID
	// Transport reaches the replicas.
	Transport cluster.Transport
	// Quorums resolves (and re-resolves, after failures and WrongShard
	// denials) this node's routes: the one tree of an unsharded cluster,
	// which the runtime routes as the single shard of the zero map, or one
	// group per shard of a partitioning map, in which case reads go to the
	// owning shard's read quorum and commits run two-phase commit over the
	// union of the touched shards' write quorums. It needs a Tree or a Map.
	Quorums TreeQuorums
	// Mode selects the protocol (default Flat).
	Mode Mode
	// IDs allocates transaction ids; defaults to a fresh generator. Share
	// one generator across all runtimes of a process.
	IDs *IDGen
	// Metrics receives this runtime's counters; defaults to a fresh
	// Metrics. Share one instance across runtimes to aggregate.
	Metrics *Metrics
	// Obs receives latency histograms, abort-cause attribution and trace
	// events (see internal/obs). nil — the default — disables all
	// observability recording at zero hot-path cost; share one Registry
	// across runtimes to aggregate, as with Metrics.
	Obs *obs.Registry
	// CheckpointEvery is the footprint growth (objects acquired) that
	// triggers automatic checkpoint creation in Checkpoint mode.
	// Default 2. The paper attributes QR-CHK's slowdown to checkpoints
	// that are too fine; the ablation benchmark sweeps this.
	CheckpointEvery int
	// CheckpointCost is the simulated execution-state capture cost paid
	// per checkpoint creation, standing in for the paper's Java
	// Continuation capture (default 0: native Go snapshots are nearly
	// free; experiments set one network quantum).
	CheckpointCost time.Duration
	// BackoffBase/BackoffMax bound the randomized exponential backoff
	// applied to full (root) aborts. Partial aborts retry immediately, as
	// in the paper. Defaults: 100µs base, 5ms max. Set BackoffBase < 0 to
	// disable backoff.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxRetries bounds attempts per root transaction; 0 means unlimited.
	MaxRetries int
	// LockWaitRetries is the contention-manager policy for reads denied
	// only because of a pending commit's locks (no committed newer
	// version): the read is retried up to this many times after a short
	// wait before the denial escalates into an abort. 0 (the default, the
	// paper's policy) aborts immediately.
	LockWaitRetries int
}

// Runtime executes transactions for one node of the cluster. A Runtime is
// safe for concurrent use: many goroutines may run Atomic simultaneously,
// modelling multiple application threads on the node.
type Runtime struct {
	node    proto.NodeID
	trans   cluster.Transport
	quorums TreeQuorums
	mode    Mode
	ids     *IDGen
	metrics *Metrics
	obs     *obs.Registry // nil disables observability (methods no-op)

	chkEvery    int
	chkCost     time.Duration
	lockWaits   int
	backoffBase time.Duration
	backoffMax  time.Duration
	maxRetries  int

	viewEpoch atomic.Uint64 // bumped on every quorum (re)resolution

	// routes is replaced wholesale by RefreshQuorums and never mutated, so
	// readers route against one consistent snapshot without locking.
	routes atomic.Pointer[routeTable]

	// txns recycles root transaction shells across attempts (rootTxn,
	// recycle), so a transaction does not reallocate its sets, log and
	// entries.
	txns sync.Pool
}

// routeTable is a runtime's routing state: the shard map and each shard's
// cached quorums, indexed by shard id. An unsharded runtime holds the zero
// map, which routes every object to shard 0, and one route: the
// cluster-wide quorums.
type routeTable struct {
	smap   proto.ShardMap
	shards []route
}

// route is one shard's cached quorums plus the id its observations carry:
// the shard itself under a partitioning map, proto.NoShard under the zero
// map (spans stay untagged and the registry grows no per-shard series).
type route struct {
	read, write []proto.NodeID
	tag         proto.ShardID
}

// NewRuntime builds a Runtime and resolves its initial quorums.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.Transport == nil {
		return nil, errors.New("core: Config.Transport is required")
	}
	rt := &Runtime{
		node:        cfg.Node,
		trans:       cfg.Transport,
		quorums:     cfg.Quorums,
		mode:        cfg.Mode,
		ids:         cfg.IDs,
		metrics:     cfg.Metrics,
		obs:         cfg.Obs,
		chkEvery:    cfg.CheckpointEvery,
		chkCost:     cfg.CheckpointCost,
		lockWaits:   cfg.LockWaitRetries,
		backoffBase: cfg.BackoffBase,
		backoffMax:  cfg.BackoffMax,
		maxRetries:  cfg.MaxRetries,
	}
	if rt.ids == nil {
		rt.ids = NewIDGen()
	}
	if rt.metrics == nil {
		rt.metrics = &Metrics{}
	}
	if rt.chkEvery <= 0 {
		rt.chkEvery = 2
	}
	if rt.backoffBase == 0 {
		rt.backoffBase = 100 * time.Microsecond
	}
	if rt.backoffMax == 0 {
		rt.backoffMax = 5 * time.Millisecond
	}
	if err := rt.RefreshQuorums(); err != nil {
		return nil, err
	}
	return rt, nil
}

// Node returns the hosting node's identity.
func (rt *Runtime) Node() proto.NodeID { return rt.node }

// Mode returns the runtime's protocol mode.
func (rt *Runtime) Mode() Mode { return rt.mode }

// Metrics returns the runtime's counter set.
func (rt *Runtime) Metrics() *Metrics { return rt.metrics }

// Obs returns the runtime's observability registry (nil when disabled).
func (rt *Runtime) Obs() *obs.Registry { return rt.obs }

// RefreshQuorums re-resolves Config.Quorums, replacing the routing state.
// It is called automatically when a quorum member stops responding and when
// a replica answers WrongShard. Bumping viewEpoch invalidates every
// outstanding delta-Rqv watermark, which is exactly right: after either kind
// of reconfiguration the old validation sessions may be split across
// different member sets.
func (rt *Runtime) RefreshQuorums() error {
	table, err := rt.quorums.resolve(rt.node)
	if err != nil {
		return err
	}
	rt.routes.Store(table)
	rt.viewEpoch.Add(1)
	return nil
}

// ShardMap returns the runtime's current placement map (zero when
// unsharded).
func (rt *Runtime) ShardMap() proto.ShardMap { return rt.routes.Load().smap }

// route returns shard s's cached route (empty quorums for an unknown shard).
func (rt *Runtime) route(s proto.ShardID) route {
	shards := rt.routes.Load().shards
	if s < 0 || int(s) >= len(shards) {
		return route{tag: proto.NoShard}
	}
	return shards[s]
}

// ViewEpoch counts how many times this runtime has (re)resolved its quorums:
// 1 after construction, +1 per reconfiguration. Nodes in one healthy cluster
// converge on the same epoch; a node reporting a lower one is serving a
// stale view (exposed via /healthz).
func (rt *Runtime) ViewEpoch() uint64 { return rt.viewEpoch.Load() }

// ReadQuorumSize reports the first shard's read quorum size (experiment
// output).
func (rt *Runtime) ReadQuorumSize() int { return len(rt.route(0).read) }

// WriteQuorumSize reports the first shard's write quorum size.
func (rt *Runtime) WriteQuorumSize() int { return len(rt.route(0).write) }

// backoff sleeps a randomized exponential delay after a full abort and
// records the sleep as it happened: the platform timer may round a short
// request up well past the delay asked for.
func (rt *Runtime) backoff(attempt int) {
	sleep := rt.backoffDelay(attempt, rand.Int64N)
	if sleep <= 0 {
		return
	}
	t0 := rt.obs.Start()
	time.Sleep(sleep)
	rt.obs.ObserveSince(obs.SiteBackoff, t0)
}

// backoffDelay computes the randomized delay for one retry: an exponentially
// grown, capped window sampled by randN, plus half the base so consecutive
// retries never land at the same instant. The final value is capped at
// BackoffMax again — the jitter floor must not push the sleep past the
// configured maximum. Split from backoff so tests can pin randN.
func (rt *Runtime) backoffDelay(attempt int, randN func(int64) int64) time.Duration {
	if rt.backoffBase < 0 {
		return 0
	}
	d := rt.backoffBase << uint(min(attempt, 12))
	if d > rt.backoffMax {
		d = rt.backoffMax
	}
	if d <= 0 {
		return 0
	}
	sleep := time.Duration(randN(int64(d))) + rt.backoffBase/2
	if sleep > rt.backoffMax {
		sleep = rt.backoffMax
	}
	return sleep
}
