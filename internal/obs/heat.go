package obs

import (
	"sort"
	"sync/atomic"

	"qrdtm/internal/proto"
)

// Per-slot heat accounting: every object access is attributed to its shard-map
// slot (proto.SlotOf — the same 64-way hash the shard router uses), giving a
// fixed-size, lock-free picture of where the load actually lands. This is the
// input a load-aware reshard planner needs: a slot with high write/conflict
// heat is a migration candidate, one with pure read heat wants replication,
// and the per-slot granularity matches the unit the planner can move
// (ShardMap placement is per slot).
//
// Recording a sample is one atomic add into a fixed array — no map, no lock,
// no allocation — so the hooks run unconditionally on the hot path. The
// touched flag keeps registries that never record heat (unsharded scrapes,
// zero-value registries) from emitting 64 slots of zeros anywhere.

// heat is the per-slot counter block embedded in Registry.
type heat struct {
	touched   atomic.Bool
	reads     [proto.NumSlots]atomic.Uint64
	writes    [proto.NumSlots]atomic.Uint64
	conflicts [proto.NumSlots]atomic.Uint64
	aborts    [proto.NumSlots]atomic.Uint64
}

func (h *heat) bump(arr *[proto.NumSlots]atomic.Uint64, obj proto.ObjectID) {
	if !h.touched.Load() {
		h.touched.Store(true)
	}
	arr[proto.SlotOf(obj)].Add(1)
}

// HeatRead counts one successful read acquisition of obj against its slot.
func (r *Registry) HeatRead(obj proto.ObjectID) {
	if r == nil {
		return
	}
	r.heat.bump(&r.heat.reads, obj)
}

// HeatWrite counts one installed write of obj against its slot.
func (r *Registry) HeatWrite(obj proto.ObjectID) {
	if r == nil {
		return
	}
	r.heat.bump(&r.heat.writes, obj)
}

// HeatConflict counts one conflict (validation denial, lock denial or
// prepare veto) attributed to obj's slot.
func (r *Registry) HeatConflict(obj proto.ObjectID) {
	if r == nil {
		return
	}
	r.heat.bump(&r.heat.conflicts, obj)
}

// HeatAbort counts one abort decision whose trigger object was obj.
func (r *Registry) HeatAbort(obj proto.ObjectID) {
	if r == nil {
		return
	}
	r.heat.bump(&r.heat.aborts, obj)
}

// HeatSnapshot is a plain-value copy of the per-slot heat counters.
type HeatSnapshot struct {
	Reads     [proto.NumSlots]uint64 `json:"reads"`
	Writes    [proto.NumSlots]uint64 `json:"writes"`
	Conflicts [proto.NumSlots]uint64 `json:"conflicts"`
	Aborts    [proto.NumSlots]uint64 `json:"aborts"`
}

// HeatSnapshot copies the heat counters, or returns nil when the registry is
// nil or never recorded a heat sample (so untouched output stays unchanged).
func (r *Registry) HeatSnapshot() *HeatSnapshot {
	if r == nil || !r.heat.touched.Load() {
		return nil
	}
	var s HeatSnapshot
	for i := 0; i < proto.NumSlots; i++ {
		s.Reads[i] = r.heat.reads[i].Load()
		s.Writes[i] = r.heat.writes[i].Load()
		s.Conflicts[i] = r.heat.conflicts[i].Load()
		s.Aborts[i] = r.heat.aborts[i].Load()
	}
	return &s
}

// Total returns one slot's combined access count (reads + writes).
func (h *HeatSnapshot) Total(slot int) uint64 {
	return h.Reads[slot] + h.Writes[slot]
}

// SlotHeat is one slot's row in ranked heat output.
type SlotHeat struct {
	Slot      int    `json:"slot"`
	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
	Conflicts uint64 `json:"conflicts"`
	Aborts    uint64 `json:"aborts"`
	Total     uint64 `json:"total"`
}

// TopSlots returns the n hottest slots by total access count, hottest first;
// slots that were never touched are excluded. Ties break toward the lower
// slot index so output is deterministic.
func (h *HeatSnapshot) TopSlots(n int) []SlotHeat {
	if h == nil {
		return nil
	}
	rows := make([]SlotHeat, 0, proto.NumSlots)
	for i := 0; i < proto.NumSlots; i++ {
		t := h.Total(i)
		if t == 0 && h.Conflicts[i] == 0 && h.Aborts[i] == 0 {
			continue
		}
		rows = append(rows, SlotHeat{
			Slot: i, Reads: h.Reads[i], Writes: h.Writes[i],
			Conflicts: h.Conflicts[i], Aborts: h.Aborts[i], Total: t,
		})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Total != rows[b].Total {
			return rows[a].Total > rows[b].Total
		}
		return rows[a].Slot < rows[b].Slot
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// Skew measures the access concentration: the hottest slot's total divided by
// the mean total over touched slots (1.0 = perfectly even, large = one slot
// dominates). Returns 0 when no slot was touched.
func (h *HeatSnapshot) Skew() float64 {
	if h == nil {
		return 0
	}
	var sum, hottest uint64
	touched := 0
	for i := 0; i < proto.NumSlots; i++ {
		t := h.Total(i)
		if t == 0 {
			continue
		}
		touched++
		sum += t
		if t > hottest {
			hottest = t
		}
	}
	if touched == 0 || sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(touched)
	if mean == 0 {
		// Unreachable while sum > 0, but a zero-traffic table must read as
		// 0.0 skew, never NaN — keep the guard explicit so a future counter
		// change cannot reintroduce a 0/0 here.
		return 0
	}
	return float64(hottest) / mean
}
