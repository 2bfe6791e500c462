package cluster

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"qrdtm/internal/proto"
)

// strayValue is an application value nobody registered with
// proto.RegisterValue.
type strayValue struct{ N int64 }

func (v strayValue) CloneValue() proto.Value { return v }

// TestTCPUnregisteredValueFailsLoudly: a call whose message carries an
// unregistered application value fails with an error naming the type, is
// counted in Stats().Failed, and sends nothing. A reply carrying one comes
// back as the same error.
func TestTCPUnregisteredValueFailsLoudly(t *testing.T) {
	var served atomic.Int64
	srv, err := ListenTCP(1, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		served.Add(1)
		return proto.DumpRep{OK: true, Copy: proto.ObjectCopy{ID: "x", Version: 1, Val: strayValue{N: 2}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	tr := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	t.Cleanup(tr.Close)

	req := proto.PrepareReq{Txn: 3, Writes: []proto.ObjectCopy{{ID: "x", Version: 1, Val: strayValue{N: 1}}}}
	if out, err := appendMessage(nil, req); err == nil || len(out) != 0 {
		t.Fatalf("appendMessage = %d bytes, %v; want nothing and an error", len(out), err)
	}
	ctx := context.Background()
	before := tr.Stats()
	_, callErr := tr.Call(ctx, 0, 1, req)
	many := tr.CallMany(ctx, 0, []proto.NodeID{1}, req)
	after := tr.Stats()
	for _, err := range []error{callErr, many[0].Err} {
		if !errors.Is(err, proto.ErrUnregisteredValue) || !strings.Contains(err.Error(), "strayValue") {
			t.Fatalf("call error = %v, want ErrUnregisteredValue naming strayValue", err)
		}
	}
	if got := after.Failed - before.Failed; got != 2 {
		t.Fatalf("Stats().Failed rose by %d, want 2", got)
	}
	if after.Bytes != before.Bytes || served.Load() != 0 {
		t.Fatalf("a refused call reached the wire: %d bytes, %d served", after.Bytes-before.Bytes, served.Load())
	}

	_, err = tr.Call(ctx, 0, 1, proto.DumpReq{Obj: "x"})
	if err == nil || !strings.Contains(err.Error(), "strayValue") {
		t.Fatalf("reply with an unregistered value: error = %v, want one naming strayValue", err)
	}
}

// TestTCPUnknownMessageFailsItsCall: a message type the codec does not know
// fails its call with an error naming the type, is counted in
// Stats().Failed, never reaches the handler, and leaves the connection
// usable.
func TestTCPUnknownMessageFailsItsCall(t *testing.T) {
	type strayMsg struct{ N int }
	var served atomic.Int64
	srv, err := ListenTCP(1, "127.0.0.1:0", func(_ proto.NodeID, req any) any {
		served.Add(1)
		return proto.DumpRep{}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	tr := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	t.Cleanup(tr.Close)

	ctx := context.Background()
	before := tr.Stats()
	_, err = tr.Call(ctx, 0, 1, strayMsg{N: 1})
	after := tr.Stats()
	if err == nil || !strings.Contains(err.Error(), "strayMsg") {
		t.Fatalf("call error = %v, want one naming strayMsg", err)
	}
	if got := after.Failed - before.Failed; got != 1 {
		t.Fatalf("Stats().Failed rose by %d, want 1", got)
	}
	if after.Bytes != before.Bytes || served.Load() != 0 {
		t.Fatalf("an unknown message reached the wire: %d bytes, %d served", after.Bytes-before.Bytes, served.Load())
	}
	if _, err := tr.Call(ctx, 0, 1, proto.DumpReq{Obj: "x"}); err != nil || served.Load() != 1 {
		t.Fatalf("call after the refused one: err %v, %d served", err, served.Load())
	}
}
