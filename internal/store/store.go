// Package store implements one replica's versioned object store: committed
// object copies with per-object version counters, commit locks (the
// "protected" flag of the QR protocol), potential-reader/potential-writer
// lists, and the validation primitive behind Rqv (Algorithms 1 and 4 of the
// paper) and the two-phase commit.
package store

import (
	"slices"
	"sync"

	"qrdtm/internal/proto"
)

// prunePRPW bounds the potential reader/writer lists per object. The lists
// are contention-manager metadata, not correctness state, so old entries can
// be discarded once a record accumulates too many.
const prunePRPW = 128

// pruneSessions bounds the number of concurrent delta-validation sessions a
// replica keeps. Sessions are an optimisation cache, not correctness state:
// evicting one only forces the owning transaction to resend its full
// footprint (the replica answers NeedFull), so stale sessions of transactions
// that aborted without a decide message cannot accumulate without bound.
const pruneSessions = 256

type record struct {
	copyv     proto.ObjectCopy
	protected bool
	protector proto.TxnID
	pr        map[proto.TxnID]struct{} // potential readers (root transactions)
	pw        map[proto.TxnID]struct{} // potential writers (root transactions)
}

// Store is one replica's object table. All methods are safe for concurrent
// use; multi-object operations (Validate, Prepare, Commit, Abort) are atomic
// with respect to each other, which is what makes a replica's vote in the
// two-phase commit consistent.
// absLock is one abstract lock grant: the root that owns it and how many
// outstanding acquisitions (one per prepared subtransaction) sustain it.
type absLock struct {
	owner proto.TxnID
	n     int
}

type Store struct {
	mu       sync.Mutex
	objs     map[proto.ObjectID]*record
	absLocks map[string]*absLock              // abstract locks (open nesting), keyed by name
	absPrep  map[proto.TxnID][]string         // locks acquired by an in-flight prepare, keyed by the preparing transaction
	sessions map[proto.TxnID][]proto.DataItem // delta-validation sessions: accumulated footprint per transaction, in log order

	// owns is the shard-ownership predicate (nil means this replica owns
	// everything — the unsharded default). A committed copy of an object
	// this replica no longer owns is frozen, not authoritative: the object's
	// home shard keeps committing new versions this replica never sees, so
	// validating against the local copy would certify stale reads. Disowned
	// items are therefore skipped by validation (with a WrongShard advisory)
	// and veto prepares outright.
	owns func(proto.ObjectID) bool
}

// New returns an empty store.
func New() *Store {
	return &Store{
		objs:     make(map[proto.ObjectID]*record),
		absLocks: make(map[string]*absLock),
		absPrep:  make(map[proto.TxnID][]string),
		sessions: make(map[proto.TxnID][]proto.DataItem),
	}
}

// SetOwnership installs the shard-ownership predicate (nil restores the
// own-everything default). The predicate must be safe for concurrent use; it
// is consulted under the store lock.
func (s *Store) SetOwnership(owns func(proto.ObjectID) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.owns = owns
}

// ownsLocked reports whether this replica currently owns id.
func (s *Store) ownsLocked(id proto.ObjectID) bool {
	return s.owns == nil || s.owns(id)
}

func (s *Store) rec(id proto.ObjectID) *record {
	r, ok := s.objs[id]
	if !ok {
		r = &record{copyv: proto.ObjectCopy{ID: id}}
		s.objs[id] = r
	}
	return r
}

// Load unconditionally installs copies (cluster bootstrap / benchmark
// population). It bypasses all concurrency control.
func (s *Store) Load(copies []proto.ObjectCopy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range copies {
		r := s.rec(c.ID)
		r.copyv = c.Clone()
		r.protected = false
		r.protector = 0
	}
}

// InstallNewer installs each copy only if it is strictly newer than the
// committed version this replica holds, leaving locks and contention
// metadata untouched. It returns how many copies were installed. This is the
// recovery-sync primitive: unlike Load it can never regress an object that a
// racing commit decision has already advanced past the sync snapshot.
func (s *Store) InstallNewer(copies []proto.ObjectCopy) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range copies {
		r := s.rec(c.ID)
		if c.Version > r.copyv.Version {
			r.copyv = c.Clone()
			n++
		}
	}
	return n
}

// DropLocks clears every object protection and abstract lock, leaving the
// committed copies untouched. A node being recovered calls this before it
// rejoins: locks are volatile coordination state, and any prepare this
// replica acknowledged happened before its crash — the coordinator has long
// since decided (or aborted) without it, so a surviving protection could
// only deny every future prepare on this member forever.
func (s *Store) DropLocks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.objs {
		r.protected = false
		r.protector = 0
	}
	clear(s.absLocks)
	clear(s.absPrep)
	clear(s.sessions)
}

// AnyProtected reports whether any object is currently protected by an
// in-flight prepare. Recovery uses it to detect commits that were already
// past their prepare when the recovering node rejoined (see Cluster.Recover).
func (s *Store) AnyProtected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.objs {
		if r.protected {
			return true
		}
	}
	return false
}

// Get returns a deep copy of the committed copy of id. Objects this replica
// has never seen read as version 0 with a nil value (ok == false); the QR
// read operation resolves such staleness by taking the highest version
// across the read quorum.
func (s *Store) Get(id proto.ObjectID) (proto.ObjectCopy, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.objs[id]
	if !ok {
		return proto.ObjectCopy{ID: id}, false
	}
	return r.copyv.Clone(), true
}

// Version returns the committed version of id (0 if unknown).
func (s *Store) Version(id proto.ObjectID) proto.Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.objs[id]; ok {
		return r.copyv.Version
	}
	return 0
}

// Len returns the number of objects this replica holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs)
}

// ValidationResult reports the outcome of Rqv validation. When OK is false,
// AbortDepth is the depth of the shallowest transaction in the requester's
// nesting hierarchy that owns an invalidated object (the paper's
// abortClosed), and AbortChk is the smallest checkpoint epoch owning an
// invalidated object (the paper's abortChk). Either may be the corresponding
// sentinel if the request carried no owner information.
type ValidationResult struct {
	OK         bool
	AbortDepth int
	AbortChk   int
	// LockOnly reports that every conflict was a commit lock (protected
	// flag) rather than a committed newer version — the requester may
	// simply be racing a commit in flight, which contention managers can
	// choose to wait out instead of aborting.
	LockOnly bool
	// WrongShard reports that some item is known here but no longer owned
	// here (it migrated away, or is mid-migration). Such items are skipped —
	// the local copy is frozen, not authoritative — so when OK is also true
	// the result certifies only the owned part of the footprint. The caller
	// must treat that as an advisory: the requester's read-only local commit
	// is no longer covered and it must revalidate per shard at commit time.
	WrongShard bool
}

// Validate runs the read-quorum validation of Algorithms 1/4: an item is
// invalid if this replica has committed a newer version of the object, or if
// the object is currently protected (locked) by another transaction's
// pending commit. Invalid items additionally get the requesting root
// transaction removed from the object's PR/PW lists, mirroring line 8 of
// Algorithm 1.
func (s *Store) Validate(self proto.TxnID, items []proto.DataItem) ValidationResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.validateLocked(self, items)
}

// ValidateDelta is the incremental form of Validate used by batched reads.
// The store keeps one session per transaction: the footprint entries it has
// accepted so far, in the requester's log order. The caller claims the
// session prefix [0, from) is already in place and ships only the suffix
// delta; the store reconciles by truncating to from and appending delta
// (which makes re-delivered or reordered duplicates converge to the
// requester's log — the delivery contract allows both), then validates the
// ENTIRE session. A positive result therefore certifies the whole
// accumulated footprint, exactly like Validate over the full data set —
// which is what keeps read-only local commits sound under delta shipping.
//
// needFull reports that the store has no session prefix of length from (it
// restarted, or pruned the session): nothing is validated and the caller
// must resend the complete footprint with from == 0.
func (s *Store) ValidateDelta(self proto.TxnID, from int, delta []proto.DataItem) (res ValidationResult, needFull bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[self]
	if from > len(sess) {
		return ValidationResult{AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}, true
	}
	// The three-index slice pins cap to from, so the append below always
	// copies delta's values instead of aliasing the request message.
	sess = append(sess[:from:from], delta...)
	if _, ok := s.sessions[self]; !ok && len(s.sessions) >= pruneSessions {
		s.pruneSessionsLocked(self)
	}
	s.sessions[self] = sess
	return s.validateLocked(self, sess), false
}

// pruneSessionsLocked evicts about half of the sessions (never self's).
// Evicted transactions recover via the NeedFull resync.
func (s *Store) pruneSessionsLocked(self proto.TxnID) {
	for t := range s.sessions {
		if t == self {
			continue
		}
		delete(s.sessions, t)
		if len(s.sessions) < pruneSessions/2 {
			break
		}
	}
}

// SessionLen reports the length of txn's delta-validation session (tests).
func (s *Store) SessionLen(txn proto.TxnID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions[txn])
}

// Sessions reports how many delta-validation sessions are live (tests).
func (s *Store) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func (s *Store) validateLocked(self proto.TxnID, items []proto.DataItem) ValidationResult {
	res := ValidationResult{OK: true, AbortDepth: proto.NoDepth, AbortChk: proto.NoChk, LockOnly: true}
	for _, it := range items {
		r, ok := s.objs[it.ID]
		if !ok {
			continue // replica is stale for this object; staleness is never a conflict
		}
		if !s.ownsLocked(it.ID) {
			// Known but disowned: the copy is frozen at its pre-migration
			// version, so neither a pass nor a fail against it means
			// anything. Skip it and flag the advisory.
			res.WrongShard = true
			continue
		}
		versionConflict := r.copyv.Version > it.Version
		conflict := versionConflict || (r.protected && r.protector != self)
		if !conflict {
			continue
		}
		res.OK = false
		if versionConflict {
			res.LockOnly = false
		}
		delete(r.pr, self)
		delete(r.pw, self)
		if res.AbortDepth == proto.NoDepth || it.OwnerDepth < res.AbortDepth {
			res.AbortDepth = it.OwnerDepth
		}
		if it.OwnerChk != proto.NoChk && (res.AbortChk == proto.NoChk || it.OwnerChk < res.AbortChk) {
			res.AbortChk = it.OwnerChk
		}
	}
	if res.OK {
		res.LockOnly = false
	}
	return res
}

// Read returns the committed copy of id and records txn as a potential
// reader (or writer, when write is true). Per Algorithm 2, only root
// transactions are recorded — closed-nested transactions must leave no
// remote metadata so they can commit locally. The copy shares the stored
// value, which is never mutated in place (see Commit), so the caller must
// not mutate it either.
func (s *Store) Read(txn proto.TxnID, id proto.ObjectID, write, recordTxn bool) proto.ObjectCopy {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rec(id)
	if recordTxn {
		target := &r.pr
		if write {
			target = &r.pw
		}
		if *target == nil {
			*target = make(map[proto.TxnID]struct{})
		}
		if len(*target) >= prunePRPW {
			for k := range *target {
				delete(*target, k)
				if len(*target) < prunePRPW/2 {
					break
				}
			}
		}
		(*target)[txn] = struct{}{}
	}
	return r.copyv
}

// maxPrefetch bounds how many linked copies one batched read reply carries
// (see Linked): enough for the longest hash-map chain the benchmarks build,
// small enough that a reply stays one frame of a few kilobytes.
const maxPrefetch = 64

// Linked follows the links (proto.Linker) of the copies a batched read just
// returned, breadth-first, and returns copies of up to maxPrefetch linked
// objects. It skips ids among from, ids already visited, objects this
// replica has never seen and objects it does not own. Unlike Read it records
// no potential reader or writer: nothing has read these objects yet, and a
// client that never uses a copy must leave no trace. The walk holds the
// store lock once. When no copy in from has links it returns nil without
// allocating. Like Read, the copies share the stored values.
func (s *Store) Linked(from []proto.ObjectCopy) []proto.ObjectCopy {
	var links []proto.ObjectID
	for _, c := range from {
		if l, ok := c.Val.(proto.Linker); ok {
			links = l.AppendLinks(links)
		}
	}
	if len(links) == 0 {
		return nil
	}
	// found holds the records to ship, in visit order, and doubles as the
	// visited set. links holds the ids to visit next: first those of from,
	// then those of each found record in turn, which makes the walk
	// breadth-first.
	var found [maxPrefetch]*record
	n, next := 0, 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(links) > 0 && n < maxPrefetch {
		for _, id := range links {
			r, ok := s.objs[id]
			if !ok || !s.ownsLocked(id) || slices.Contains(found[:n], r) ||
				slices.ContainsFunc(from, func(c proto.ObjectCopy) bool { return c.ID == id }) {
				continue
			}
			found[n] = r
			if n++; n == maxPrefetch {
				break
			}
		}
		links = links[:0]
		for ; next < n && len(links) == 0; next++ {
			if l, ok := found[next].copyv.Val.(proto.Linker); ok {
				links = l.AppendLinks(links)
			}
		}
	}
	out := make([]proto.ObjectCopy, n)
	for i, r := range found[:n] {
		out[i] = r.copyv
	}
	return out
}

// Prepare is a replica's phase-one vote: it validates the read-set and the
// write-set (at the versions the transaction acquired them) and, on success,
// atomically protects every write-set object for txn. On failure nothing is
// protected and the vote is negative.
func (s *Store) Prepare(txn proto.TxnID, reads []proto.DataItem, writes []proto.ObjectCopy) bool {
	return s.PrepareOpen(txn, reads, writes, nil, 0)
}

// PrepareOpen is Prepare extended with abstract-lock acquisition for open
// nesting: all of absLocks must be free or already held by owner, and on a
// positive vote they are granted to owner atomically with the object locks.
func (s *Store) PrepareOpen(txn proto.TxnID, reads []proto.DataItem, writes []proto.ObjectCopy, absLocks []string, owner proto.TxnID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A prepare vote must cover its whole slice of the footprint: an item
	// this replica does not own cannot be voted on at all (the server's
	// map-level check answers WrongShard before getting here; this guards
	// the race where ownership flipped in between).
	if res := s.validateLocked(txn, reads); !res.OK || res.WrongShard {
		return false
	}
	for _, w := range writes {
		if !s.ownsLocked(w.ID) {
			return false
		}
		r, ok := s.objs[w.ID]
		if !ok {
			continue
		}
		if r.copyv.Version > w.Version || (r.protected && r.protector != txn) {
			return false
		}
	}
	for _, l := range absLocks {
		if !s.ownsLocked(proto.ObjectID(l)) {
			return false
		}
	}
	for _, l := range absLocks {
		if g, held := s.absLocks[l]; held && g.owner != owner {
			return false
		}
	}
	for _, w := range writes {
		r := s.rec(w.ID)
		r.protected = true
		r.protector = txn
	}
	for _, l := range absLocks {
		if g, held := s.absLocks[l]; held {
			g.n++
		} else {
			s.absLocks[l] = &absLock{owner: owner, n: 1}
		}
	}
	if len(absLocks) > 0 {
		s.absPrep[txn] = append([]string(nil), absLocks...)
	}
	return true
}

// settleAbstract finalizes a prepare's abstract-lock acquisitions when the
// transaction's decision arrives: a commit keeps the grants (they belong to
// the owning root until ReleaseAbstract); an abort undoes exactly the
// acquisitions this node made for this prepare — nodes that rejected the
// prepare made none, so a broadcast abort cannot release someone else's
// grant.
func (s *Store) settleAbstract(txn proto.TxnID, commit bool) {
	names, ok := s.absPrep[txn]
	if !ok {
		return
	}
	delete(s.absPrep, txn)
	if commit {
		return
	}
	for _, l := range names {
		if g, held := s.absLocks[l]; held {
			if g.n--; g.n <= 0 {
				delete(s.absLocks, l)
			}
		}
	}
}

// ReleaseAbstract frees every abstract lock held by owner.
func (s *Store) ReleaseAbstract(owner proto.TxnID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for l, g := range s.absLocks {
		if g.owner == owner {
			delete(s.absLocks, l)
		}
	}
}

// AbstractLockHolder reports who holds an abstract lock (0 = free).
func (s *Store) AbstractLockHolder(name string) proto.TxnID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, held := s.absLocks[name]; held {
		return g.owner
	}
	return 0
}

// Commit installs the decided writes (whose Version fields carry the new
// version) and releases txn's locks on them. Stale replicas simply jump to
// the new version. The store keeps the written values themselves, not
// copies: a value inside the engine is immutable, and an installed one is
// only ever replaced, never changed.
func (s *Store) Commit(txn proto.TxnID, writes []proto.ObjectCopy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleAbstract(txn, true)
	delete(s.sessions, txn) // the transaction is decided; its session is dead

	for _, w := range writes {
		r := s.rec(w.ID)
		if r.copyv.Version < w.Version {
			r.copyv = w
		}
		if r.protected && r.protector == txn {
			r.protected = false
			r.protector = 0
		}
		delete(r.pw, txn)
		delete(r.pr, txn)
	}
}

// Abort releases any locks txn holds on the given objects (phase two of an
// aborted commit). Objects protected by other transactions are untouched.
func (s *Store) Abort(txn proto.TxnID, ids []proto.ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleAbstract(txn, false)
	delete(s.sessions, txn)
	for _, id := range ids {
		r, ok := s.objs[id]
		if !ok {
			continue
		}
		if r.protected && r.protector == txn {
			r.protected = false
			r.protector = 0
		}
		delete(r.pw, txn)
		delete(r.pr, txn)
	}
}

// DumpSlots returns deep copies of every committed object hashing into one
// of the given slots, plus whether any of them is still protected by an
// in-flight prepare. The migration drain loops over it: copies move with
// InstallNewer semantics, and ownership only transfers once a pass installs
// nothing new and nothing is protected (every prepared commit has decided).
func (s *Store) DumpSlots(slots []int) ([]proto.ObjectCopy, bool) {
	want := make(map[int]bool, len(slots))
	for _, sl := range slots {
		want[sl] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []proto.ObjectCopy
	protected := false
	for id, r := range s.objs {
		if !want[proto.SlotOf(id)] {
			continue
		}
		out = append(out, r.copyv.Clone())
		protected = protected || r.protected
	}
	return out, protected
}

// DumpAll returns deep copies of every committed object (recovery sync and
// tooling).
func (s *Store) DumpAll() []proto.ObjectCopy {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]proto.ObjectCopy, 0, len(s.objs))
	for _, r := range s.objs {
		out = append(out, r.copyv.Clone())
	}
	return out
}

// ContentionInfo is a snapshot of one object's contention-manager metadata.
type ContentionInfo struct {
	Version   proto.Version
	Protected bool
	Readers   int
	Writers   int
}

// Contention returns the contention metadata for id.
func (s *Store) Contention(id proto.ObjectID) ContentionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.objs[id]
	if !ok {
		return ContentionInfo{}
	}
	return ContentionInfo{
		Version:   r.copyv.Version,
		Protected: r.protected,
		Readers:   len(r.pr),
		Writers:   len(r.pw),
	}
}
