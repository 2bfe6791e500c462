// Package qrdtm is the public face of the QR-DTM library: a fault-tolerant
// distributed transactional memory with quorum-based replication, closed
// nesting (QR-CN) and checkpointing (QR-CHK), reproducing Dhoke, Ravindran
// and Zhang, "On Closed Nesting and Checkpointing in Fault-Tolerant
// Distributed Transactional Memory" (IPDPS 2013).
//
// The quickest way in is a simulated cluster:
//
//	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: 13, Mode: qrdtm.Closed})
//	...
//	rt := c.Runtime(0) // transactions issued from node 0
//	err = rt.Atomic(ctx, func(tx *qrdtm.Txn) error {
//	    v, err := tx.Read("acct/alice")
//	    ...
//	    return tx.Write("acct/alice", newVal)
//	})
//
// Everything here is a thin veneer over the implementation packages:
// internal/core (the transaction engine), internal/server (replicas),
// internal/quorum (tree quorums) and internal/cluster (transports).
package qrdtm

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/load"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
)

// Re-exported identifiers so applications only import qrdtm.
type (
	// NodeID identifies a replica node.
	NodeID = proto.NodeID
	// ObjectID names a shared transactional object.
	ObjectID = proto.ObjectID
	// Value is the payload interface stored in objects.
	Value = proto.Value
	// ObjectCopy is a versioned object snapshot.
	ObjectCopy = proto.ObjectCopy
	// Txn is a (possibly nested) transaction handle.
	Txn = core.Txn
	// Runtime executes transactions for one node.
	Runtime = core.Runtime
	// Mode selects the nesting/checkpointing protocol.
	Mode = core.Mode
	// State is the program state of a step-structured transaction.
	State = core.State
	// Step is one unit of a step-structured transaction.
	Step = core.Step
	// Metrics aggregates client-side protocol counters.
	Metrics = core.Metrics
)

// Observability re-exports (see internal/obs and DESIGN.md §8): a Registry
// collects latency histograms by site and abort counters by cause; an
// attached SpanBuffer retains the per-transaction record as spans.
type (
	// Registry is the observability hub handed to runtimes via
	// ClusterConfig.Obs. The nil default records nothing at no cost.
	Registry = obs.Registry
	// AbortCause classifies why a transaction attempt aborted.
	AbortCause = obs.AbortCause
	// ObsSnapshot is a serializable registry snapshot.
	ObsSnapshot = obs.Snapshot
	// SpanBuffer retains completed distributed-tracing spans per node.
	SpanBuffer = obs.SpanBuffer
	// Span is one completed span of a distributed trace.
	Span = proto.Span
	// TraceContext is the causal context piggybacked on wire requests.
	TraceContext = proto.TraceContext
	// CheckResult summarizes an obs.CheckTrace run.
	CheckResult = obs.CheckResult
)

// Introspection-plane re-exports (see internal/obs and DESIGN.md §13): the
// live registry also carries per-slot heat counters and an always-on
// streaming trace auditor.
type (
	// Auditor is the streaming trace auditor continuously running CheckTrace
	// invariants over a live span buffer.
	Auditor = obs.Auditor
	// AuditorConfig tunes the streaming auditor's poll/settle windows.
	AuditorConfig = obs.AuditorConfig
	// AuditStats is the auditor's counter snapshot.
	AuditStats = obs.AuditStats
	// HeatSnapshot is a copy of the per-slot access heat counters.
	HeatSnapshot = obs.HeatSnapshot
	// SlotHeat is one slot's row in ranked heat output.
	SlotHeat = obs.SlotHeat
)

// NewAuditor builds a streaming auditor over the registry's span buffer (see
// obs.NewAuditor); Start it, and Stop it at shutdown for a final flush.
func NewAuditor(reg *Registry, cfg AuditorConfig) *Auditor { return obs.NewAuditor(reg, cfg) }

// Open-loop load re-exports (see internal/load and DESIGN.md §14): a
// Generator offers transactions on a fixed arrival schedule regardless of
// completion, measuring latency from each arrival's *intended* time so
// saturation shows up as queueing/shedding instead of the coordinated
// omission of a closed loop.
type (
	// LoadConfig configures an open-loop Generator.
	LoadConfig = load.Config
	// LoadGenerator is the open-loop transaction generator.
	LoadGenerator = load.Generator
	// LoadStats is a completed run's accounting.
	LoadStats = load.Stats
	// LoadSchedule selects the arrival process (Poisson or Uniform).
	LoadSchedule = load.Schedule
	// TxnFunc is the per-arrival transaction body a Generator drives.
	TxnFunc = load.TxnFunc
)

// Arrival schedules.
const (
	// Poisson draws exponential inter-arrival gaps (open-system model).
	Poisson = load.Poisson
	// Uniform spaces arrivals evenly at the target rate.
	Uniform = load.Uniform
)

// NewLoadGenerator builds an open-loop generator (see load.New).
func NewLoadGenerator(cfg LoadConfig) (*LoadGenerator, error) { return load.New(cfg) }

// ParseLoadSchedule parses "poisson" or "uniform" (see load.ParseSchedule).
func ParseLoadSchedule(name string) (LoadSchedule, error) { return load.ParseSchedule(name) }

// RegisterRuntimeGauges exports Go runtime health (goroutines, heap in use,
// GC pause p99) as registry gauges (see obs.RegisterRuntimeGauges). Opt-in:
// an untouched registry's Prometheus scrape stays byte-identical.
func RegisterRuntimeGauges(reg *Registry) { obs.RegisterRuntimeGauges(reg) }

// Sharding re-exports (see internal/proto/shard.go and DESIGN.md §12): the
// object space can be split into independent quorum groups behind a
// versioned placement map.
type (
	// ShardID identifies one quorum group of a sharded cluster.
	ShardID = proto.ShardID
	// ShardSpec is one shard's membership.
	ShardSpec = proto.ShardSpec
	// ShardMap is the versioned slot→shard placement map.
	ShardMap = proto.ShardMap
)

// NoShard is the sentinel "no shard" id.
const NoShard = proto.NoShard

// PartitionMap builds an initial shard map dealing the object slots
// round-robin over n contiguous node groups (see proto.PartitionMap).
func PartitionMap(nodes []NodeID, shards int) ShardMap {
	return proto.PartitionMap(nodes, shards)
}

// FetchShardMap bootstraps a client's placement map from the first of nodes
// that answers (see core.FetchShardMap).
func FetchShardMap(ctx context.Context, trans cluster.Transport, from NodeID, nodes []NodeID) (ShardMap, error) {
	return core.FetchShardMap(ctx, trans, from, nodes)
}

// NewRegistry returns an empty observability registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewSpanBuffer builds a span ring for distributed tracing; attach it with
// Registry.WithSpans before building runtimes/clusters.
func NewSpanBuffer(size int) *SpanBuffer { return obs.NewSpanBuffer(size) }

// MergeSpans merges per-node span dumps into one timeline (see obs.MergeSpans).
func MergeSpans(dumps ...[]Span) []Span { return obs.MergeSpans(dumps...) }

// CheckTrace verifies protocol invariants over a merged span timeline (see
// obs.CheckTrace).
func CheckTrace(spans []Span) CheckResult { return obs.CheckTrace(spans) }

// CollectTrace gathers spans from every given replica node via the
// transport's TraceDumpReq plus any extra local dumps (e.g. the caller's own
// span buffer), merged and deduplicated. Nodes that fail to answer are
// skipped: a partially collected trace is still useful, and CheckTrace
// counts broken causal chains as incomplete rather than failing them.
func CollectTrace(ctx context.Context, trans cluster.Transport, from NodeID, nodes []NodeID, local ...[]Span) []Span {
	dumps := append([][]Span{}, local...)
	for _, n := range nodes {
		resp, err := trans.Call(ctx, from, n, proto.TraceDumpReq{})
		if err != nil {
			continue
		}
		if rep, ok := resp.(proto.TraceDumpRep); ok {
			dumps = append(dumps, rep.Spans)
		}
	}
	return obs.MergeSpans(dumps...)
}

// Abort causes.
const (
	// CauseReadValidation: read-quorum validation found a stale footprint.
	CauseReadValidation = obs.CauseReadValidation
	// CauseLockDenied: a pending commit's locks denied the read.
	CauseLockDenied = obs.CauseLockDenied
	// CauseCommitConflict: a write-quorum member voted no at prepare.
	CauseCommitConflict = obs.CauseCommitConflict
	// CauseNodeDown: a quorum member was unreachable.
	CauseNodeDown = obs.CauseNodeDown
	// CauseWrongShard: a commit participant's shard no longer homed part of
	// the footprint (stale map or migration fence).
	CauseWrongShard = obs.CauseWrongShard
)

// AbortCauses lists all abort causes in presentation order.
var AbortCauses = obs.Causes

// Protocol modes.
const (
	// Flat is baseline QR: flat nesting, commit-time validation.
	Flat = core.Flat
	// FlatRqv is flat nesting with incremental read validation (ablation).
	FlatRqv = core.FlatRqv
	// Closed is QR-CN: closed nesting with local subtransaction commits.
	Closed = core.Closed
	// Checkpoint is QR-CHK: automatic checkpoints with partial rollback.
	Checkpoint = core.Checkpoint
)

// Scalar payloads, re-exported for convenience.
type (
	// Int64 is a scalar integer payload.
	Int64 = proto.Int64
	// String is a scalar string payload.
	String = proto.String
	// Int64Slice is an integer-slice payload.
	Int64Slice = proto.Int64Slice
)

// RegisterValue registers an application-defined Value for the TCP transport
// and the WAL (log records and snapshots) under a one-byte tag, unique
// within the process. v must also implement AppendBinary(b []byte) ([]byte,
// error), appending its own encoding to b, and decode must rebuild the value
// from exactly those bytes (copying what it keeps); that is the value's only
// encoding. A message carrying an unregistered type fails its
// call with an error naming the type. The stock payloads (Int64, String, …)
// need no registration; the in-memory cluster needs none at all. A value may
// also implement AppendLinks(dst []ObjectID) []ObjectID (proto.Linker),
// naming the objects it points at: a replica answering a read then ships
// those objects with the reply, so walking them costs no further read
// round. It panics on a taken tag, an already registered type, a stock
// kind, a nil value or decoder, and a missing AppendBinary. See
// proto.RegisterValue.
func RegisterValue(tag byte, v Value, decode func(b []byte) (Value, error)) {
	proto.RegisterValue(tag, v, decode)
}

// Real-TCP deployment re-exports (see internal/cluster and DESIGN.md §11):
// ListenTCP serves a replica, NewTCPTransport connects a client to the
// cluster. There is one wire protocol, pipelined binary frames: many
// concurrent calls multiplexed over one connection per peer.
type (
	// TCPTransport is the client side of a real TCP deployment.
	TCPTransport = cluster.TCPTransport
	// TCPServer serves one replica's handler over TCP.
	TCPServer = cluster.TCPServer
	// TCPOption configures NewTCPTransport.
	TCPOption = cluster.TCPOption
)

// NewTCPTransport connects to the peers (node id → address); opts tune
// dialing (WithDialTimeout).
func NewTCPTransport(peers map[NodeID]string, opts ...TCPOption) *TCPTransport {
	return cluster.NewTCPTransport(peers, opts...)
}

// WithDialTimeout bounds connection establishment (the caller's context
// still applies; the shorter of the two wins).
func WithDialTimeout(d time.Duration) TCPOption { return cluster.WithDialTimeout(d) }

// ListenTCP starts a TCP server for node id on addr ("host:0" picks a free
// port) serving h — typically a replica's Handle method. The server calls h
// on the goroutine that read the request (bar prepares and decides waiting
// for a WAL), so an h that blocks stalls its connection.
func ListenTCP(id NodeID, addr string, h func(from NodeID, req any) any) (*TCPServer, error) {
	return cluster.ListenTCP(id, addr, h)
}

// Composition sentinels (see Txn.OrElse and Txn.Open).
var (
	// ErrBranchFailed makes an OrElse branch fall through to the next.
	ErrBranchFailed = core.ErrBranchFailed
	// ErrNeedsClosedNesting reports OrElse used outside Closed mode.
	ErrNeedsClosedNesting = core.ErrNeedsClosedNesting
	// ErrOpenInCheckpointed reports Txn.Open used in Checkpoint mode.
	ErrOpenInCheckpointed = core.ErrOpenInCheckpointed
)

// ClusterConfig describes a simulated QR-DTM cluster.
type ClusterConfig struct {
	// Nodes is the replica count (default 13 — a full 3-level ternary
	// tree, the paper's running example).
	Nodes int
	// Mode selects the protocol for all runtimes (default Flat).
	Mode Mode
	// Latency is the simulated network latency model (default zero). The
	// simulator sleeps, so configure delays at millisecond scale — the
	// platform sleep quantum is the effective resolution.
	Latency cluster.LatencyModel
	// TxTime serializes each node's outgoing messages with the given
	// per-message transmission delay, making quorum multicasts cost
	// proportionally more than unicasts (default 0).
	TxTime time.Duration
	// ServiceTime serializes each replica's request processing with the
	// given per-request cost, modelling bounded node capacity (default 0).
	ServiceTime time.Duration
	// CheckpointEvery is the QR-CHK footprint threshold (default 2).
	CheckpointEvery int
	// CheckpointCost is the simulated per-checkpoint state-capture cost
	// (default 0; see core.Config.CheckpointCost).
	CheckpointCost time.Duration
	// SpreadQuorums gives each node the failure-adaptive read quorum
	// (quorum.Tree.ReadQuorumSpread keyed by the node id, per shard when
	// sharded): canonical while no failure forces delegation, spread across
	// the subtree replicas once one does (the paper's Figure 10). Write
	// quorums stay canonical. The default assigns everyone the canonical
	// read quorum, as in the paper's main experiments.
	SpreadQuorums bool
	// Shards splits the object space into that many independent quorum
	// groups: the nodes are dealt into contiguous groups, each running its
	// own (smaller) quorum tree, and a versioned shard map routes every
	// object to its group. Cross-shard transactions commit via 2PC over the
	// union of the touched shards' write quorums. 0 or 1 (the default) is
	// the classic single-tree cluster.
	Shards int
	// MaxRetries bounds attempts per transaction (0 = unlimited).
	MaxRetries int
	// LockWaitRetries is the contention-manager policy for lock-only read
	// denials (see core.Config.LockWaitRetries; default 0 = paper policy).
	LockWaitRetries int
	// BackoffBase/BackoffMax tune full-abort backoff (see core.Config).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Obs, when set, collects latency histograms, abort-cause counters and
	// (with an attached SpanBuffer) per-transaction spans from every runtime
	// of the cluster. The nil default records nothing at no hot-path cost.
	Obs *Registry
	// WrapTransport, when set, decorates the transport the runtimes issue
	// calls through (e.g. cluster.NewFaultTransport for message-level fault
	// injection, cluster.NewRetryTransport for transient-fault masking).
	// Cluster.Transport remains the underlying MemTransport, so crash
	// injection (Fail/Recover/Down) and message accounting are unaffected.
	WrapTransport func(cluster.Transport) cluster.Transport
}

// Cluster is a simulated QR-DTM deployment: replicas, transport, quorum
// system, and per-node transaction runtimes sharing one metrics block.
type Cluster struct {
	Transport *cluster.MemTransport
	Tree      *quorum.Tree
	Replicas  []*server.Replica

	cfg       ClusterConfig
	metrics   *core.Metrics
	ids       *core.IDGen
	callTrans cluster.Transport // transport runtimes call through (possibly decorated)

	mu       sync.Mutex
	runtimes map[NodeID]*Runtime

	// smap is the live placement map of a sharded cluster (zero when
	// unsharded). Guarded by its own lock: runtimes re-read it through the
	// Quorums.Map closure while refreshAll holds mu.
	smapMu sync.RWMutex
	smap   proto.ShardMap
}

// NewCluster builds and wires a simulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 13
	}
	var opts []cluster.MemOption
	if cfg.Latency != nil {
		opts = append(opts, cluster.WithLatency(cfg.Latency))
	}
	if cfg.TxTime > 0 {
		opts = append(opts, cluster.WithTxTime(cfg.TxTime))
	}
	if cfg.ServiceTime > 0 {
		opts = append(opts, cluster.WithServiceTime(cfg.ServiceTime))
	}
	t := cluster.NewMemTransport(opts...)
	c := &Cluster{
		Transport: t,
		Tree:      quorum.NewTree(cfg.Nodes),
		cfg:       cfg,
		metrics:   &core.Metrics{},
		ids:       core.NewIDGen(),
		runtimes:  make(map[NodeID]*Runtime),
	}
	for i := 0; i < cfg.Nodes; i++ {
		// Replicas share the cluster registry, so serve-side spans (and
		// service-time histograms) land in the same buffer as the client
		// side's; Span.Node keeps the per-replica attribution.
		r := server.New(NodeID(i)).WithObs(cfg.Obs)
		c.Replicas = append(c.Replicas, r)
		t.Register(NodeID(i), r.Handle)
	}
	c.callTrans = cluster.Transport(t)
	if cfg.WrapTransport != nil {
		c.callTrans = cfg.WrapTransport(c.callTrans)
	}
	if cfg.Shards > 1 {
		ids := make([]NodeID, cfg.Nodes)
		for i := range ids {
			ids[i] = NodeID(i)
		}
		m := proto.PartitionMap(ids, cfg.Shards)
		if !m.Sharded() {
			return nil, fmt.Errorf("qrdtm: cannot partition %d nodes into %d shards", cfg.Nodes, cfg.Shards)
		}
		c.smap = m
		for _, r := range c.Replicas {
			r.SetShardMap(m)
		}
	}
	return c, nil
}

// ShardMap returns a copy of the cluster's live placement map (zero when
// unsharded).
func (c *Cluster) ShardMap() ShardMap {
	c.smapMu.RLock()
	defer c.smapMu.RUnlock()
	return c.smap.Clone()
}

// setShardMap swings the live map (reconfiguration commit point for new
// runtimes and shard-aware helpers).
func (c *Cluster) setShardMap(m ShardMap) {
	c.smapMu.Lock()
	c.smap = m
	c.smapMu.Unlock()
}

// Runtime returns (building on first use) the transaction runtime hosted on
// the given node. All runtimes share the cluster's metrics and ID space.
// Safe for concurrent use.
func (c *Cluster) Runtime(node NodeID) *Runtime {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rt, ok := c.runtimes[node]; ok {
		return rt
	}
	cfg := core.Config{
		Node:            node,
		Transport:       c.callTrans,
		Mode:            c.cfg.Mode,
		IDs:             c.ids,
		Metrics:         c.metrics,
		CheckpointEvery: c.cfg.CheckpointEvery,
		CheckpointCost:  c.cfg.CheckpointCost,
		BackoffBase:     c.cfg.BackoffBase,
		BackoffMax:      c.cfg.BackoffMax,
		MaxRetries:      c.cfg.MaxRetries,
		LockWaitRetries: c.cfg.LockWaitRetries,
		Obs:             c.cfg.Obs,
		// Resolved against the live map, so a refresh after AddShard sees
		// the new placement; the zero map routes through Tree.
		Quorums: core.TreeQuorums{
			Tree:   c.Tree,
			Map:    func() (ShardMap, error) { return c.ShardMap(), nil },
			Alive:  func(n NodeID) bool { return !c.Transport.Down(n) },
			Spread: c.cfg.SpreadQuorums,
		},
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		// Runtime construction only fails when no quorum exists, which on
		// a fresh cluster is a configuration bug.
		panic(fmt.Sprintf("qrdtm: building runtime for %v: %v", node, err))
	}
	c.runtimes[node] = rt
	return rt
}

// Metrics returns the cluster-wide client metrics.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Load installs objects for bootstrap/population on the members of each
// object's shard, which is every replica when unsharded: a copy on a
// non-owner would sit frozen and trip the disowned-copy advisory on every
// footprint that mentions it. It bypasses concurrency control and must not
// race with running transactions.
func (c *Cluster) Load(copies []ObjectCopy) {
	m := c.ShardMap()
	groups := c.groups(m)
	byShard := make(map[ShardID][]ObjectCopy)
	for _, cp := range copies {
		s := m.ShardFor(cp.ID)
		byShard[s] = append(byShard[s], cp)
	}
	for s, part := range byShard {
		if int(s) >= len(groups) {
			continue
		}
		for _, n := range groups[s].Members {
			c.Replicas[n].Store().Load(part)
		}
	}
}

// groups lists the quorum groups of placement m, indexed by shard id: the
// zero map's single group, shard 0, is every node.
func (c *Cluster) groups(m ShardMap) []ShardSpec {
	if m.Sharded() {
		return m.Shards
	}
	return []ShardSpec{{ID: 0, Members: c.nodes()}}
}

// nodes lists every node id of the cluster.
func (c *Cluster) nodes() []NodeID {
	all := make([]NodeID, len(c.Replicas))
	for i := range all {
		all[i] = NodeID(i)
	}
	return all
}

// LoadKV is Load for a simple id→value map, installed at version 1.
func (c *Cluster) LoadKV(objs map[ObjectID]Value) {
	copies := make([]ObjectCopy, 0, len(objs))
	for id, v := range objs {
		copies = append(copies, ObjectCopy{ID: id, Version: 1, Val: v})
	}
	c.Load(copies)
}

// Fail crashes a node and reconfigures every existing runtime's quorums.
// It returns an error if the failure leaves the cluster without quorums.
func (c *Cluster) Fail(node NodeID) error {
	c.Transport.Fail(node)
	return c.refreshAll()
}

// Recover restarts a crashed node after synchronizing its store from a live
// read quorum, so the crash-stop safety argument is preserved: the node
// rejoins holding the latest committed version of every object it serves.
//
// Ordering matters here. A write quorum chosen while the node was down does
// not contain it, so a commit racing the sync can decide a version the sync
// snapshot missed — and once the node resumes serving (as the canonical read
// quorum, say), every later transaction reads the stale version and wedges
// at prepare against the newer copies. Recovery therefore rejoins the node
// and refreshes quorums FIRST (new commits now include it in their write
// quorums), then re-syncs non-regressively from a read quorum that excludes
// it, repeating until a pass installs nothing and no sync-quorum member
// holds an in-flight prepare — at which point every commit that could have
// bypassed the node has landed and been copied over.
// The sync draws from the node's own shard: its members are the only
// replicas that (should) hold the node's objects.
func (c *Cluster) Recover(ctx context.Context, node NodeID) error {
	alive := func(n NodeID) bool { return !c.Transport.Down(n) && n != node }
	if err := ctx.Err(); err != nil {
		return err
	}
	// A restarting node holds no locks: any protection it granted predates
	// its crash, and those transactions decided without it while it was down.
	// Dropping them prevents a resurrected lock from denying every future
	// prepare on this member.
	c.Replicas[node].Store().DropLocks()
	// First pass before rejoining: bring the node near-current so the window
	// where it serves reads while behind is as short as possible.
	if _, err := c.syncFromQuorum(node, alive); err != nil {
		return err
	}
	c.Transport.Recover(node)
	if err := c.refreshAll(); err != nil {
		return err
	}
	// Stabilization: commits in flight across the rejoin used write quorums
	// without the node. Each such commit either already decided (the next
	// pass copies its version) or still holds prepare locks on the sync
	// quorum (AnyProtected keeps the loop alive). Bounded so a busy cluster
	// cannot pin recovery forever; the bound is generous against the ~one
	// round-trip the straddling window actually lasts.
	for pass := 0; pass < 16; pass++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		installed, err := c.syncFromQuorum(node, alive)
		if err != nil {
			return err
		}
		pending := false
		if rq, err := c.syncQuorum(node, alive); err == nil {
			for _, n := range rq {
				if c.Replicas[n].Store().AnyProtected() {
					pending = true
					break
				}
			}
		}
		if installed == 0 && !pending {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// syncFromQuorum installs on node the newest committed copy of every object
// held by a read quorum over alive (which excludes node itself). A read
// quorum collectively holds the latest committed version of every object,
// so recovery is a store-to-store sync from its members; InstallNewer makes
// the sync monotone so it can never clobber a version a racing commit
// decision already installed on the node.
func (c *Cluster) syncFromQuorum(node NodeID, alive func(NodeID) bool) (int, error) {
	rq, err := c.syncQuorum(node, alive)
	if err != nil {
		return 0, err
	}
	latest := make(map[ObjectID]ObjectCopy)
	for _, n := range rq {
		for _, cp := range c.Replicas[n].Store().DumpAll() {
			if cur, ok := latest[cp.ID]; !ok || cp.Version > cur.Version {
				latest[cp.ID] = cp
			}
		}
	}
	copies := make([]ObjectCopy, 0, len(latest))
	for _, cp := range latest {
		copies = append(copies, cp)
	}
	return c.Replicas[node].Store().InstallNewer(copies), nil
}

// syncQuorum picks the member set a recovering node syncs from: a read
// quorum of the node's own shard (other shards neither hold nor need its
// objects; unsharded, the shard is the whole cluster). A node belonging to
// no shard syncs from nobody.
func (c *Cluster) syncQuorum(node NodeID, alive func(NodeID) bool) ([]NodeID, error) {
	for _, g := range c.groups(c.ShardMap()) {
		if slices.Contains(g.Members, node) {
			return quorum.NewGroup(g.Members).ReadQuorum(alive)
		}
	}
	return nil, nil
}

func (c *Cluster) refreshAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rt := range c.runtimes {
		if err := rt.RefreshQuorums(); err != nil {
			return err
		}
	}
	return nil
}

// ReadCommitted returns the globally latest committed copy of id, resolved
// through a read quorum of its owning shard (tooling, tests and examples;
// not transactional).
func (c *Cluster) ReadCommitted(ctx context.Context, id ObjectID) (ObjectCopy, error) {
	if err := ctx.Err(); err != nil {
		return ObjectCopy{}, err
	}
	m := c.ShardMap()
	groups, s := c.groups(m), m.ShardFor(id)
	if int(s) >= len(groups) {
		return ObjectCopy{}, fmt.Errorf("qrdtm: object %s maps to an unknown shard", id)
	}
	rq, err := quorum.NewGroup(groups[s].Members).ReadQuorum(func(n NodeID) bool { return !c.Transport.Down(n) })
	if err != nil {
		return ObjectCopy{}, err
	}
	best := ObjectCopy{ID: id}
	for _, n := range rq {
		cp, ok := c.Replicas[n].Store().Get(id)
		if ok && cp.Version >= best.Version {
			best = cp
		}
	}
	return best, nil
}

// AddShard reconfigures a live sharded cluster online: it carves the given
// slots out of their current shards and moves them — traffic still flowing —
// to a shard with the given members, which may be brand new (id ==
// len(ShardMap().Shards)) or an existing shard being rebalanced onto. The
// two-epoch migration protocol (fence, drain, flip; see core.Reshard and
// DESIGN.md §12) guarantees no committed write is lost and no transaction
// observes the move except as WrongShard retries. On success every runtime's
// quorums are refreshed against the new map.
func (c *Cluster) AddShard(ctx context.Context, id ShardID, members []NodeID, slots []int) error {
	cur := c.ShardMap()
	if !cur.Sharded() {
		return fmt.Errorf("qrdtm: AddShard requires a sharded cluster (ClusterConfig.Shards > 1)")
	}
	spec := ShardSpec{ID: id, Members: members}
	// The sim transport only uses `from` for latency/tx-time attribution;
	// node 0 stands in for the (external) reconfiguration controller.
	final, err := core.Reshard(ctx, c.Transport, 0, c.nodes(), cur, spec, slots)
	if err != nil {
		return err
	}
	c.setShardMap(final)
	return c.refreshAll()
}
