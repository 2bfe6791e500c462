package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/proto"
)

// Site names one instrumented protocol location. The registry keeps one
// histogram per site; duration sites record nanoseconds, dimensionless
// sites (RollbackDepth) record raw values.
type Site int

const (
	// SiteReadRTT is the read-quorum multicast round trip (Algorithm 2's
	// remote read, validation probes included).
	SiteReadRTT Site = iota
	// SiteCommitRTT is the commit protocol round trip: prepare multicast
	// through the decide multicast.
	SiteCommitRTT
	// SiteTxnLatency is the full root-transaction latency of a committed
	// transaction, every aborted attempt and backoff included.
	SiteTxnLatency
	// SiteBackoff is the abort-to-retry backoff sleep.
	SiteBackoff
	// SiteRollbackDepth is the number of completed steps discarded by a
	// checkpoint rollback (dimensionless — "work thrown away"; the steps
	// *kept* are what checkpointing saved over a full restart).
	SiteRollbackDepth
	// SiteServeRead is the replica-side service time of a read request.
	SiteServeRead
	// SiteServePrepare is the replica-side service time of a prepare.
	SiteServePrepare
	// SiteBatchSize is the number of objects fetched per batched read-quorum
	// round (dimensionless; 1 = a plain single-object read).
	SiteBatchSize
	// SitePhasePrepare is the prepare leg of the commit protocol: the prepare
	// multicast through the last vote, per participating shard round.
	SitePhasePrepare
	// SitePhaseDecide is the decide leg of the commit protocol: the decide
	// multicast through the last acknowledgement.
	SitePhaseDecide
	// SiteLockWait is the contention-manager sleep spent waiting out another
	// transaction's commit-in-flight locks before retrying a read round.
	SiteLockWait
	// SiteQueueWait is the time a wire frame spends queued in a muxConn's
	// write queue before the write loop picks it up (mux head-of-line wait).
	SiteQueueWait
	// SiteQueueDepth is the number of frames already queued ahead of a frame
	// at enqueue time (dimensionless; 0 = the write loop was idle).
	SiteQueueDepth
	// SiteWALFsync is the duration of one write-ahead-log group-commit flush
	// (write + fsync); each sample may have acknowledged many appends.
	SiteWALFsync

	numSites
)

// siteNames are the stable identifiers used in JSON output.
var siteNames = [numSites]string{
	SiteReadRTT:       "read_rtt",
	SiteCommitRTT:     "commit_rtt",
	SiteTxnLatency:    "txn_latency",
	SiteBackoff:       "backoff",
	SiteRollbackDepth: "rollback_depth",
	SiteServeRead:     "serve_read",
	SiteServePrepare:  "serve_prepare",
	SiteBatchSize:     "batch_size",
	SitePhasePrepare:  "phase_prepare",
	SitePhaseDecide:   "phase_decide",
	SiteLockWait:      "lock_wait",
	SiteQueueWait:     "queue_wait",
	SiteQueueDepth:    "queue_depth",
	SiteWALFsync:      "wal_fsync",
}

// String implements fmt.Stringer.
func (s Site) String() string {
	if s < 0 || s >= numSites {
		return "site(?)"
	}
	return siteNames[s]
}

// Sites lists all instrumented sites in presentation order.
var Sites = []Site{
	SiteReadRTT, SiteCommitRTT, SiteTxnLatency, SiteBackoff,
	SiteRollbackDepth, SiteServeRead, SiteServePrepare, SiteBatchSize,
	SitePhasePrepare, SitePhaseDecide, SiteLockWait, SiteQueueWait, SiteQueueDepth,
	SiteWALFsync,
}

// AbortCause classifies why a transaction (or subtransaction) attempt was
// aborted — the attribution the paper's Figure 8 aggregates away.
type AbortCause int

const (
	// CauseReadValidation: read-quorum validation found a footprint entry
	// stale (a concurrent commit installed a newer version).
	CauseReadValidation AbortCause = iota
	// CauseLockDenied: a read was denied purely by a pending commit's
	// locks and the contention-manager wait budget ran out.
	CauseLockDenied
	// CauseCommitConflict: a write-quorum member voted no at prepare.
	CauseCommitConflict
	// CauseNodeDown: a quorum member was unreachable and the attempt was
	// aborted to reconfigure around it.
	CauseNodeDown
	// CauseWrongShard: a commit participant rejected the prepare because an
	// object is not (or no longer) homed on its shard — the client's shard
	// map was stale, or a migration fenced the object mid-commit.
	CauseWrongShard

	numCauses
)

var causeNames = [numCauses]string{
	CauseReadValidation: "read-validation",
	CauseLockDenied:     "lock-denied",
	CauseCommitConflict: "commit-conflict",
	CauseNodeDown:       "node-down",
	CauseWrongShard:     "wrong-shard",
}

// String implements fmt.Stringer.
func (c AbortCause) String() string {
	if c < 0 || c >= numCauses {
		return "cause(?)"
	}
	return causeNames[c]
}

// Causes lists all abort causes in presentation order.
var Causes = []AbortCause{CauseReadValidation, CauseLockDenied, CauseCommitConflict, CauseNodeDown, CauseWrongShard}

// Registry is the per-process (or per-experiment-cell) observability hub:
// one histogram per instrumented site, abort counters by cause, and an
// optional SpanBuffer holding the per-transaction record (spans).
//
// The zero value is ready to use. A nil *Registry no-ops on every method at
// the cost of a nil check — instrumented code calls unconditionally and a
// runtime built without observability pays nothing else.
type Registry struct {
	hists  [numSites]Histogram
	aborts [numCauses]atomic.Uint64
	spans  *SpanBuffer

	// Per-shard metric slices, lazily allocated the first time a sharded
	// runtime reports against a shard. Unsharded runs never touch them (and
	// pay only an untaken branch), so single-tree output is byte-identical.
	shardMu sync.RWMutex
	shards  map[proto.ShardID]*shardStats

	// Per-slot heat counters (see heat.go). Embedded by value: the arrays
	// are fixed-size and the touched flag keeps untouched registries from
	// emitting 64 slots of zeros.
	heat heat

	// Registered gauge callbacks, read at snapshot time. Gauges are for
	// instantaneous state owned elsewhere (pool sizes, in-flight request
	// counts, auditor totals) — the callback model means the hot path that
	// owns the state pays nothing for being observable.
	gaugeMu sync.Mutex
	gauges  map[string]func() int64
}

// shardStats is the per-shard slice of the hot-path metrics: the two quorum
// round-trip sites that actually vary by shard (smaller groups → shorter
// rounds), plus commit/abort counts for per-shard throughput attribution.
type shardStats struct {
	readRTT   Histogram
	commitRTT Histogram
	commits   atomic.Uint64
	aborts    atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Start returns the current time, or the zero time on a nil registry so the
// matching ObserveSince is a no-op. The pair brackets a timed section
// without any allocation and without paying for a clock read when
// observability is off.
func (r *Registry) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the elapsed time since t0 at site s.
func (r *Registry) ObserveSince(s Site, t0 time.Time) {
	if r == nil || t0.IsZero() {
		return
	}
	r.hists[s].Record(int64(time.Since(t0)))
}

// Observe records a raw sample at site s.
func (r *Registry) Observe(s Site, v int64) {
	if r == nil {
		return
	}
	r.hists[s].Record(v)
}

// Abort counts one abort attributed to cause c.
func (r *Registry) Abort(c AbortCause) {
	if r == nil {
		return
	}
	r.aborts[c].Add(1)
}

// shardStats returns the lazily-allocated stats slice for one shard, or nil
// on a nil registry or negative id.
func (r *Registry) shardStats(id proto.ShardID) *shardStats {
	if r == nil || id < 0 {
		return nil
	}
	r.shardMu.RLock()
	s := r.shards[id]
	r.shardMu.RUnlock()
	if s != nil {
		return s
	}
	r.shardMu.Lock()
	defer r.shardMu.Unlock()
	if r.shards == nil {
		r.shards = make(map[proto.ShardID]*shardStats)
	}
	if s = r.shards[id]; s == nil {
		s = &shardStats{}
		r.shards[id] = s
	}
	return s
}

// ShardObserveSince records the elapsed time since t0 against shard id at
// site s. Only the per-shard sites (SiteReadRTT, SiteCommitRTT) are kept;
// other sites no-op rather than grow unbounded per-shard state.
func (r *Registry) ShardObserveSince(id proto.ShardID, s Site, t0 time.Time) {
	ss := r.shardStats(id)
	if ss == nil || t0.IsZero() {
		return
	}
	switch s {
	case SiteReadRTT:
		ss.readRTT.Record(int64(time.Since(t0)))
	case SiteCommitRTT:
		ss.commitRTT.Record(int64(time.Since(t0)))
	}
}

// ShardCommit counts one committed transaction whose footprint touched shard
// id (a cross-shard commit counts on every participant).
func (r *Registry) ShardCommit(id proto.ShardID) {
	if ss := r.shardStats(id); ss != nil {
		ss.commits.Add(1)
	}
}

// ShardAbort counts one aborted attempt attributed to shard id.
func (r *Registry) ShardAbort(id proto.ShardID) {
	if ss := r.shardStats(id); ss != nil {
		ss.aborts.Add(1)
	}
}

// RegisterGauge registers (or replaces) a named gauge callback. fn is called
// on every Snapshot and must be safe for concurrent use. Nil registries and
// nil callbacks no-op.
func (r *Registry) RegisterGauge(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.gaugeMu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[string]func() int64)
	}
	r.gauges[name] = fn
	r.gaugeMu.Unlock()
}

// GaugeValues evaluates every registered gauge. Returns nil when none are
// registered, so consumers (and the Prometheus writer) can omit the section.
func (r *Registry) GaugeValues() map[string]int64 {
	if r == nil {
		return nil
	}
	r.gaugeMu.Lock()
	fns := make(map[string]func() int64, len(r.gauges))
	for n, fn := range r.gauges {
		fns[n] = fn
	}
	r.gaugeMu.Unlock()
	if len(fns) == 0 {
		return nil
	}
	out := make(map[string]int64, len(fns))
	for n, fn := range fns {
		out[n] = fn()
	}
	return out
}

// AbortCounts returns the abort counters keyed by cause name.
func (r *Registry) AbortCounts() map[string]uint64 {
	out := make(map[string]uint64, numCauses)
	for _, c := range Causes {
		var n uint64
		if r != nil {
			n = r.aborts[c].Load()
		}
		out[c.String()] = n
	}
	return out
}

// Snapshot is a serializable copy of a registry: per-site histogram
// summaries plus abort counters by cause.
type Snapshot struct {
	Sites  map[string]Stats  `json:"sites"`
	Aborts map[string]uint64 `json:"aborts"`

	// Shards carries the per-shard metric slices of a sharded run, keyed by
	// shard id. Empty (omitted) on unsharded runs.
	Shards map[proto.ShardID]ShardSnapshot `json:"shards,omitempty"`

	// Heat carries the per-slot access counters (see heat.go). Nil (omitted)
	// when the run never recorded a heat sample.
	Heat *HeatSnapshot `json:"heat,omitempty"`

	// Gauges carries the registered gauge values. Nil (omitted) when no
	// gauge was ever registered.
	Gauges map[string]int64 `json:"gauges,omitempty"`

	// SpanStats describes the attached span buffer's retention (seen vs
	// dropped-by-overwrite). Nil (omitted) when tracing is off.
	SpanStats *SpanBufStats `json:"spans,omitempty"`

	// Hists keeps the full bucketed snapshots (not serialized; Prometheus
	// exposition and sum/count readers need more than the summary).
	Hists map[Site]HistSnapshot `json:"-"`
}

// ShardSnapshot is one shard's slice of a Snapshot.
type ShardSnapshot struct {
	ReadRTT   Stats  `json:"read_rtt"`
	CommitRTT Stats  `json:"commit_rtt"`
	Commits   uint64 `json:"commits"`
	Aborts    uint64 `json:"aborts"`
}

// Snapshot copies every histogram and counter. Safe on a nil registry
// (returns an all-zero snapshot with the full key set, so consumers can
// index unconditionally).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Sites:  make(map[string]Stats, numSites),
		Aborts: make(map[string]uint64, numCauses),
		Hists:  make(map[Site]HistSnapshot, numSites),
	}
	for _, site := range Sites {
		var hs HistSnapshot
		if r != nil {
			hs = r.hists[site].Snapshot()
		}
		s.Hists[site] = hs
		s.Sites[site.String()] = hs.Stats()
	}
	s.Aborts = r.AbortCounts()
	if r != nil {
		r.shardMu.RLock()
		if len(r.shards) > 0 {
			s.Shards = make(map[proto.ShardID]ShardSnapshot, len(r.shards))
			for id, ss := range r.shards {
				s.Shards[id] = ShardSnapshot{
					ReadRTT:   ss.readRTT.Snapshot().Stats(),
					CommitRTT: ss.commitRTT.Snapshot().Stats(),
					Commits:   ss.commits.Load(),
					Aborts:    ss.aborts.Load(),
				}
			}
		}
		r.shardMu.RUnlock()
		s.Heat = r.HeatSnapshot()
		s.Gauges = r.GaugeValues()
		if b := r.spans; b != nil {
			st := b.Stats()
			s.SpanStats = &st
		}
	}
	return s
}
