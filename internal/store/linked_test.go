package store

import (
	"fmt"
	"reflect"
	"testing"

	"qrdtm/internal/proto"
)

// linkVal is a test value with up to two links (proto.Linker).
type linkVal struct{ a, b proto.ObjectID }

func (v linkVal) CloneValue() proto.Value { return v }

func (v linkVal) AppendLinks(dst []proto.ObjectID) []proto.ObjectID {
	for _, id := range []proto.ObjectID{v.a, v.b} {
		if id != "" {
			dst = append(dst, id)
		}
	}
	return dst
}

func lnk(id string, a, b proto.ObjectID) proto.ObjectCopy {
	return proto.ObjectCopy{ID: proto.ObjectID(id), Version: 1, Val: linkVal{a, b}}
}

func ids(cs []proto.ObjectCopy) []proto.ObjectID {
	out := make([]proto.ObjectID, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

// linkedStore holds r -> (x, y), x -> x1, y -> (y1, ghost), x1 -> (r, y):
// one link back to the requested root, one duplicate, one unknown object.
func linkedStore() (*Store, proto.ObjectCopy) {
	s := New()
	s.Load([]proto.ObjectCopy{
		lnk("r", "x", "y"),
		lnk("x", "x1", ""),
		lnk("y", "y1", "ghost"),
		lnk("x1", "r", "y"),
		lnk("y1", "", ""),
	})
	r, _ := s.Get("r")
	return s, r
}

// TestLinkedWalksBreadthFirst: the walk visits linked objects level by level
// and skips the requested copy, objects already visited and objects this
// replica has never seen.
func TestLinkedWalksBreadthFirst(t *testing.T) {
	s, r := linkedStore()
	got := ids(s.Linked([]proto.ObjectCopy{r}))
	if want := []proto.ObjectID{"x", "y", "x1", "y1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Linked = %v, want %v", got, want)
	}
}

// TestLinkedSkipsDisowned: an object this replica does not own is neither
// shipped nor followed — its frozen copy may point at a stale chain.
func TestLinkedSkipsDisowned(t *testing.T) {
	s, r := linkedStore()
	s.SetOwnership(func(id proto.ObjectID) bool { return id != "y" })
	got := ids(s.Linked([]proto.ObjectCopy{r}))
	if want := []proto.ObjectID{"x", "x1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Linked = %v, want %v", got, want)
	}
}

// TestLinkedBound: a 200-node chain ships only its first maxPrefetch nodes.
func TestLinkedBound(t *testing.T) {
	s := New()
	const n = 200
	chain := make([]proto.ObjectCopy, n)
	for i := range chain {
		var next proto.ObjectID
		if i+1 < n {
			next = proto.ObjectID(fmt.Sprintf("n%d", i+1))
		}
		chain[i] = lnk(fmt.Sprintf("n%d", i), next, "")
	}
	s.Load(chain)
	got := s.Linked(chain[:1])
	if len(got) != maxPrefetch || maxPrefetch != 64 {
		t.Fatalf("shipped %d copies, want the 64-copy bound (maxPrefetch = %d)", len(got), maxPrefetch)
	}
	for i, c := range got {
		if want := proto.ObjectID(fmt.Sprintf("n%d", i+1)); c.ID != want {
			t.Fatalf("copy %d = %v, want %v", i, c.ID, want)
		}
	}
}

// TestLinkedRecordsNoReaders: a walk leaves the PR/PW lists untouched —
// nothing has read the linked objects yet.
func TestLinkedRecordsNoReaders(t *testing.T) {
	s, _ := linkedStore()
	r := s.Read(7, "r", false, true)
	if len(s.Linked([]proto.ObjectCopy{r})) == 0 {
		t.Fatal("nothing linked")
	}
	if c := s.Contention("r"); c.Readers != 1 {
		t.Fatalf("requested object readers = %d, want 1", c.Readers)
	}
	for _, id := range []proto.ObjectID{"x", "y", "x1", "y1"} {
		if c := s.Contention(id); c.Readers != 0 || c.Writers != 0 {
			t.Fatalf("%v: readers %d, writers %d after a prefetch walk, want 0/0", id, c.Readers, c.Writers)
		}
	}
}

// TestLinkedWithoutLinksAllocatesNothing: copies that link nowhere (the bank
// workloads' Int64 balances) cost the walk no allocation.
func TestLinkedWithoutLinksAllocatesNothing(t *testing.T) {
	s := New()
	s.Load([]proto.ObjectCopy{cp("a", 1, 10), cp("b", 1, 20)})
	from := []proto.ObjectCopy{cp("a", 1, 10), cp("b", 1, 20)}
	var got []proto.ObjectCopy
	if allocs := testing.AllocsPerRun(100, func() { got = s.Linked(from) }); allocs != 0 {
		t.Fatalf("Linked allocated %.0f times for link-free copies", allocs)
	}
	if got != nil {
		t.Fatalf("Linked = %v, want nil", got)
	}
}
