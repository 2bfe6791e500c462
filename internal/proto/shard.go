package proto

// This file defines the placement layer that splits the object space across
// independent quorum groups (shards). A ShardMap is a versioned slot table in
// the Redis-cluster style: every ObjectID hashes to one of NumSlots slots,
// every slot is owned by exactly one shard, and every shard is an independent
// replica group running its own ternary quorum tree over its Members.
//
// The map travels by value and is compared by Epoch only: a replica or client
// holding epoch E replaces its map whenever it sees epoch E' > E. Online
// reconfiguration publishes two epochs per move (see core.Reshard): E+1 marks
// the moving slots as migrating (both source and target fence new reads and
// prepares on them), objects are copied while in-flight commits drain, and
// E+2 transfers ownership.

// ShardID identifies one quorum group in a ShardMap. IDs are dense indexes
// into ShardMap.Shards.
type ShardID int

// NumSlots is the fixed size of the slot table. Placement granularity is a
// slot: reconfiguration moves whole slots between shards. 64 slots keep the
// table tiny on the wire while still letting a handful of shards be
// rebalanced in useful increments.
const NumSlots = 64

// NoShard is the sentinel ShardID used in SlotEntry.MovingTo when a slot is
// not migrating.
const NoShard ShardID = -1

// ShardSpec describes one shard: its id and the replica nodes forming its
// quorum tree. Members are in tree order — Members[0] is the tree root,
// children of position i are positions 3i+1..3i+3.
type ShardSpec struct {
	ID      ShardID
	Members []NodeID
}

// SlotEntry is one slot's placement: the owning shard and, during a
// migration, the shard the slot is moving to (NoShard otherwise).
type SlotEntry struct {
	Owner    ShardID
	MovingTo ShardID
}

// ShardMap is the versioned placement table routing every object to its
// shard. A zero-valued map (Epoch 0, no shards) means "unsharded": callers
// treat the whole cluster as one implicit group and skip ownership checks.
type ShardMap struct {
	Epoch  uint64
	Slots  []SlotEntry // len NumSlots when sharded
	Shards []ShardSpec
}

// SlotOf hashes an object id to its slot (FNV-1a, masked to NumSlots).
func SlotOf(obj ObjectID) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(obj); i++ {
		h ^= uint64(obj[i])
		h *= prime64
	}
	return int(h % NumSlots)
}

// Sharded reports whether the map actually partitions the space (a zero map
// routes everything to the implicit shard 0).
func (m ShardMap) Sharded() bool { return len(m.Shards) > 0 }

// ShardFor returns the shard owning obj. On an unsharded map it returns 0.
func (m ShardMap) ShardFor(obj ObjectID) ShardID {
	if !m.Sharded() || len(m.Slots) < NumSlots {
		return 0
	}
	return m.Slots[SlotOf(obj)].Owner
}

// Migrating reports whether obj's slot is currently moving between shards.
func (m ShardMap) Migrating(obj ObjectID) bool {
	if !m.Sharded() || len(m.Slots) < NumSlots {
		return false
	}
	return m.Slots[SlotOf(obj)].MovingTo != NoShard
}

// Shard returns the spec for id.
func (m ShardMap) Shard(id ShardID) (ShardSpec, bool) {
	if int(id) < 0 || int(id) >= len(m.Shards) {
		return ShardSpec{}, false
	}
	return m.Shards[id], true
}

// Member reports whether node belongs to shard id.
func (m ShardMap) Member(id ShardID, node NodeID) bool {
	s, ok := m.Shard(id)
	if !ok {
		return false
	}
	for _, n := range s.Members {
		if n == node {
			return true
		}
	}
	return false
}

// Owns reports whether node may serve obj under this map: node must belong
// to the owning shard and the slot must not be mid-migration (the migration
// fence — migrating slots reject new reads and prepares at both ends until
// ownership flips). An unsharded map owns everything everywhere.
func (m ShardMap) Owns(node NodeID, obj ObjectID) bool {
	if !m.Sharded() {
		return true
	}
	if m.Migrating(obj) {
		return false
	}
	return m.Member(m.ShardFor(obj), node)
}

// Nodes returns the union of all member node ids, deduplicated, in first-seen
// order.
func (m ShardMap) Nodes() []NodeID {
	seen := make(map[NodeID]bool)
	var out []NodeID
	for _, s := range m.Shards {
		for _, n := range s.Members {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// Clone deep-copies the map so a caller can build the next epoch without
// aliasing the current one.
func (m ShardMap) Clone() ShardMap {
	out := m
	out.Slots = append([]SlotEntry(nil), m.Slots...)
	out.Shards = make([]ShardSpec, len(m.Shards))
	for i, s := range m.Shards {
		out.Shards[i] = ShardSpec{ID: s.ID, Members: append([]NodeID(nil), s.Members...)}
	}
	return out
}

// PartitionMap builds the initial placement: nodes split contiguously into
// shards groups (earlier groups take the remainder), slots dealt round-robin.
// shards <= 1 yields a single group over all nodes; epoch starts at 1 so any
// published map outranks the zero map.
func PartitionMap(nodes []NodeID, shards int) ShardMap {
	if shards < 1 {
		shards = 1
	}
	if shards > len(nodes) {
		shards = len(nodes)
	}
	m := ShardMap{Epoch: 1, Slots: make([]SlotEntry, NumSlots)}
	per, extra := len(nodes)/shards, len(nodes)%shards
	off := 0
	for i := 0; i < shards; i++ {
		n := per
		if i < extra {
			n++
		}
		m.Shards = append(m.Shards, ShardSpec{
			ID:      ShardID(i),
			Members: append([]NodeID(nil), nodes[off:off+n]...),
		})
		off += n
	}
	for s := range m.Slots {
		m.Slots[s] = SlotEntry{Owner: ShardID(s % shards), MovingTo: NoShard}
	}
	return m
}

// ---- reconfiguration wire messages (cold path) ----

// ShardMapReq asks a replica for its current shard map (clients bootstrap
// and refresh their placement with it).
type ShardMapReq struct{}

// ShardMapRep answers ShardMapReq. A zero-epoch map means the replica is
// unsharded.
type ShardMapRep struct {
	Map ShardMap
}

// MapUpdateReq installs a new shard map on a replica if it is newer than the
// one the replica holds (idempotent, duplicate-tolerant).
type MapUpdateReq struct {
	Map ShardMap
}

// MapUpdateRep reports the epoch the replica holds after the update.
type MapUpdateRep struct {
	Epoch uint64
}

// SlotDumpReq asks a replica for every committed copy whose object hashes
// into one of Slots (migration drain). Protected in the reply reports whether
// any such object is still locked by an in-flight prepare — the migration
// loop must wait it out before transferring ownership.
type SlotDumpReq struct {
	Slots []int
}

// SlotDumpRep answers SlotDumpReq.
type SlotDumpRep struct {
	Copies    []ObjectCopy
	Protected bool
}

// InstallReq asks a replica to install copies that are strictly newer than
// what it holds (migration transfer; InstallNewer semantics, so repeated or
// overlapping transfers are harmless).
type InstallReq struct {
	Copies []ObjectCopy
}

// InstallRep reports how many copies were actually installed; a full drain
// pass that installs zero anywhere has converged.
type InstallRep struct {
	Installed int
}
