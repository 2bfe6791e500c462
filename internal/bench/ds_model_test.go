package bench_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"qrdtm"
	"qrdtm/internal/bench"
	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// dsHarness drives one data-structure workload with a single client so the
// structure's final content can be compared against a map model.
type dsHarness struct {
	t      *testing.T
	c      *qrdtm.Cluster
	rt     *core.Runtime
	oracle bench.Oracle
}

func newDSHarness(t *testing.T, w bench.Workload, p bench.Params, seed uint64) *dsHarness {
	t.Helper()
	c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: 13, Mode: qrdtm.Closed})
	if err != nil {
		t.Fatal(err)
	}
	c.Load(w.Setup(p, rand.New(rand.NewPCG(seed, 0))))
	return &dsHarness{
		t:  t,
		c:  c,
		rt: c.Runtime(2),
		oracle: func(id proto.ObjectID) (proto.Value, bool) {
			cp, err := c.ReadCommitted(context.Background(), id)
			if err != nil || cp.Val == nil {
				return nil, false
			}
			return cp.Val, true
		},
	}
}

// run executes one op-step transactionally.
func (h *dsHarness) run(step core.Step) {
	h.t.Helper()
	if err := h.rt.Atomic(context.Background(), func(tx *core.Txn) error {
		return step(tx, core.NoState{})
	}); err != nil {
		h.t.Fatal(err)
	}
}

// collectHashmapKeys walks committed chains.
func collectHashmapKeys(t *testing.T, oracle bench.Oracle, buckets int, prefix string) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	for b := 0; b < buckets; b++ {
		v, ok := oracle(proto.ObjectID(fmt.Sprintf("%s/h%d", prefix, b)))
		if !ok {
			t.Fatalf("missing head %d", b)
		}
		cur := v.(bench.ChainHead).First
		for cur != "" {
			nv, ok := oracle(cur)
			if !ok {
				t.Fatalf("dangling %v", cur)
			}
			n := nv.(bench.ChainNode)
			out[n.Key] = true
			cur = n.Next
		}
	}
	return out
}

func TestHashmapMatchesModel(t *testing.T) {
	const keys = 60
	w := bench.NewHashmap("m", 7)
	p := bench.Params{Objects: keys, Ops: 1, ReadRatio: 0}
	h := newDSHarness(t, w, p, 11)

	model := map[int64]bool{}
	for k := int64(0); k < keys; k += 2 {
		model[k] = true // Setup pre-populates even keys
	}

	rng := rand.New(rand.NewPCG(42, 43))
	for i := 0; i < 300; i++ {
		key := int64(rng.IntN(keys))
		if rng.IntN(2) == 0 {
			h.run(bench.HashmapPut(w, key))
			model[key] = true
		} else {
			h.run(bench.HashmapRemove(w, key))
			delete(model, key)
		}
	}

	got := collectHashmapKeys(t, h.oracle, 7, "m")
	if len(got) != len(model) {
		t.Fatalf("size %d, model %d", len(got), len(model))
	}
	for k := range model {
		if !got[k] {
			t.Fatalf("model key %d missing", k)
		}
	}
	if err := w.Verify(p, h.oracle); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListMatchesModel(t *testing.T) {
	const keys = 60
	w := bench.NewSkipList("s")
	p := bench.Params{Objects: keys, Ops: 1, ReadRatio: 0}
	h := newDSHarness(t, w, p, 12)

	model := map[int64]bool{}
	for k := int64(0); k < keys; k += 2 {
		model[k] = true
	}

	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 300; i++ {
		key := int64(rng.IntN(keys))
		if rng.IntN(2) == 0 {
			h.run(bench.SkipListInsert(w, key, rng))
			model[key] = true
		} else {
			h.run(bench.SkipListRemove(w, key))
			delete(model, key)
		}
		if i%60 == 0 {
			if err := w.Verify(p, h.oracle); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := w.Verify(p, h.oracle); err != nil {
		t.Fatal(err)
	}
	// Membership check through the data structure itself.
	for k := int64(0); k < keys; k++ {
		var found bool
		h.run(bench.SkipListContains(w, k, &found))
		if found != model[k] {
			t.Fatalf("contains(%d) = %v, model %v", k, found, model[k])
		}
	}
}

func TestBSTMatchesModel(t *testing.T) {
	const keys = 60
	w := bench.NewBST("t")
	p := bench.Params{Objects: keys, Ops: 1, ReadRatio: 0}
	h := newDSHarness(t, w, p, 13)

	model := map[int64]bool{}
	for k := int64(0); k < keys; k += 2 {
		model[k] = true
	}

	rng := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 300; i++ {
		key := int64(rng.IntN(keys))
		if rng.IntN(2) == 0 {
			h.run(bench.BSTInsert(w, key))
			model[key] = true
		} else {
			h.run(bench.BSTRemove(w, key))
			delete(model, key)
		}
		if i%60 == 0 {
			if err := w.Verify(p, h.oracle); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := w.Verify(p, h.oracle); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < keys; k++ {
		var found bool
		h.run(bench.BSTContains(w, k, &found))
		if found != model[k] {
			t.Fatalf("contains(%d) = %v, model %v", k, found, model[k])
		}
	}
}

func TestRBTreeTransactionalMatchesModel(t *testing.T) {
	const keys = 60
	w := bench.NewRBTree("r")
	p := bench.Params{Objects: keys, Ops: 1, ReadRatio: 0}
	h := newDSHarness(t, w, p, 14)

	model := map[int64]bool{}
	for k := int64(0); k < keys; k += 2 {
		model[k] = true
	}

	rng := rand.New(rand.NewPCG(15, 16))
	for i := 0; i < 300; i++ {
		key := int64(rng.IntN(keys))
		if rng.IntN(2) == 0 {
			h.run(bench.RBTreeInsert(w, key))
			model[key] = true
		} else {
			h.run(bench.RBTreeRemove(w, key))
			delete(model, key)
		}
		if i%60 == 0 {
			if err := w.Verify(p, h.oracle); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := w.Verify(p, h.oracle); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < keys; k++ {
		var found bool
		h.run(bench.RBTreeContains(w, k, &found))
		if found != model[k] {
			t.Fatalf("contains(%d) = %v, model %v", k, found, model[k])
		}
	}
}
