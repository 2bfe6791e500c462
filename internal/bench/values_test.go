package bench_test

import (
	"context"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"qrdtm"
	"qrdtm/internal/bench"
	"qrdtm/internal/cluster"
	"qrdtm/internal/proto"
)

// commitCapture records the prepare and decide requests a runtime sends.
type commitCapture struct {
	cluster.Transport
	mu   sync.Mutex
	msgs []any
}

func (c *commitCapture) Call(ctx context.Context, from, to proto.NodeID, req any) (any, error) {
	switch req.(type) {
	case proto.PrepareReq, proto.DecideReq:
		c.mu.Lock()
		c.msgs = append(c.msgs, req)
		c.mu.Unlock()
	}
	return c.Transport.Call(ctx, from, to, req)
}

// delivered is msg as the codec promises to deliver it: zero-length slices
// arrive as nil, as they do through gob.
func delivered(msg any) any {
	switch m := msg.(type) {
	case proto.PrepareReq:
		m.Reads = nilIfEmpty(m.Reads)
		m.Writes = nilIfEmpty(m.Writes)
		m.AbsLocks = nilIfEmpty(m.AbsLocks)
		return m
	case proto.DecideReq:
		m.Writes = nilIfEmpty(m.Writes)
		return m
	case proto.LoadReq:
		m.Objects = nilIfEmpty(m.Objects)
		return m
	}
	return msg
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// wireCopy pushes msg through the binary codec and fails unless it comes
// back deeply equal (up to the empty-slice convention).
func wireCopy(t *testing.T, msg any) {
	t.Helper()
	b, err := proto.EncodeWire(nil, msg)
	if err != nil {
		t.Fatalf("EncodeWire(%T): %v", msg, err)
	}
	got, err := proto.DecodeWire(b)
	if err != nil {
		t.Fatalf("DecodeWire(%T): %v", msg, err)
	}
	if want := delivered(msg); !reflect.DeepEqual(got, want) {
		t.Fatalf("%T changed on the wire:\n sent: %+v\n got:  %+v", msg, msg, got)
	}
}

// TestBenchValuesCrossTheWire sends every workload's setup objects as a
// LoadReq, and the prepare and decide requests of one generated write
// transaction, through the binary codec: each must arrive unchanged, and
// between them the workloads must carry every bench value type.
func TestBenchValuesCrossTheWire(t *testing.T) {
	seen := map[reflect.Type]bool{}
	note := func(cs []proto.ObjectCopy) {
		for _, c := range cs {
			if c.Val != nil {
				seen[reflect.TypeOf(c.Val)] = true
			}
		}
	}
	for _, name := range bench.Names {
		w, err := bench.New(name)
		if err != nil {
			t.Fatal(err)
		}
		p := bench.Params{Objects: 16, Ops: 3, ReadRatio: 0}
		objs := w.Setup(p, rand.New(rand.NewPCG(1, 2)))
		wireCopy(t, proto.LoadReq{Objects: objs})
		note(objs)

		capture := &commitCapture{}
		c, err := qrdtm.NewCluster(qrdtm.ClusterConfig{Nodes: 4, Mode: qrdtm.Flat,
			WrapTransport: func(tr cluster.Transport) cluster.Transport {
				capture.Transport = tr
				return capture
			}})
		if err != nil {
			t.Fatal(err)
		}
		c.Load(objs)
		rt := c.Runtime(0)
		rng := rand.New(rand.NewPCG(3, 4))
		var prepares, decides int
		for i := 0; i < 20 && (prepares == 0 || decides == 0); i++ {
			st, steps := w.NewTxn(rng, p)
			if _, err := rt.AtomicSteps(context.Background(), st, steps); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, msg := range capture.msgs {
				wireCopy(t, msg)
				switch m := msg.(type) {
				case proto.PrepareReq:
					prepares++
					note(m.Writes)
				case proto.DecideReq:
					decides++
					note(m.Writes)
				}
			}
			capture.msgs = nil
		}
		if prepares == 0 || decides == 0 {
			t.Fatalf("%s: no transaction reached commit (prepares %d, decides %d)", name, prepares, decides)
		}
	}
	for _, v := range []proto.Value{bench.ChainNode{}, bench.ChainHead{}, bench.RBNode{}, bench.BSTNode{},
		bench.SkipNode{}, bench.ReservationItem{}, bench.CustomerRecord{}} {
		if !seen[reflect.TypeOf(v)] {
			t.Errorf("no workload sent a %T", v)
		}
	}
}
