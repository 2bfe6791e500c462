package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm/internal/proto"
)

func TestFaultAsymmetricPartition(t *testing.T) {
	mem := NewMemTransport()
	mem.Register(1, echoHandler)
	mem.Register(2, echoHandler)
	ft := NewFaultTransport(mem, 1)
	ft.Partition(1, 2)

	_, err := ft.Call(context.Background(), 1, 2, "x")
	if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrNodeDown) {
		t.Fatalf("cut direction: err = %v, want transient node-down", err)
	}
	if _, err := ft.Call(context.Background(), 2, 1, "x"); err != nil {
		t.Fatalf("reverse direction must keep working: %v", err)
	}
	ft.Heal(1, 2)
	if _, err := ft.Call(context.Background(), 1, 2, "x"); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if f := ft.Faults(); f.Partitioned != 1 {
		t.Fatalf("Partitioned = %d, want 1", f.Partitioned)
	}
}

func TestFaultDropRate(t *testing.T) {
	mem := NewMemTransport()
	mem.Register(1, echoHandler)
	ft := NewFaultTransport(mem, 42)
	ft.SetDropRate(0.5)
	const n = 200
	failed := 0
	for i := 0; i < n; i++ {
		if _, err := ft.Call(context.Background(), 0, 1, i); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("drop not marked transient: %v", err)
			}
			failed++
		}
	}
	if failed < n/4 || failed > 3*n/4 {
		t.Fatalf("dropped %d/%d at rate 0.5", failed, n)
	}
	if got := ft.Faults().Dropped; got != uint64(failed) {
		t.Fatalf("Dropped = %d, observed %d", got, failed)
	}
}

func TestFaultDuplicateDelivery(t *testing.T) {
	var served atomic.Int64
	mem := NewMemTransport()
	mem.Register(1, func(_ proto.NodeID, req any) any {
		served.Add(1)
		return req
	})
	ft := NewFaultTransport(mem, 7)
	ft.SetDuplicateRate(1.0)
	if _, err := ft.Call(context.Background(), 0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if got := served.Load(); got != 2 {
		t.Fatalf("handler served %d times, want 2 (at-least-once)", got)
	}
	if f := ft.Faults(); f.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", f.Duplicated)
	}
}

func TestFaultDelay(t *testing.T) {
	mem := NewMemTransport()
	mem.Register(1, echoHandler)
	ft := NewFaultTransport(mem, 7)
	ft.SetDelay(30*time.Millisecond, 0)
	start := time.Now()
	if _, err := ft.Call(context.Background(), 0, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delay not applied (took %v)", el)
	}
	// Delay must be cancellable.
	ft.SetDelay(5*time.Second, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := ft.Call(ctx, 0, 1, "x"); err == nil {
		t.Fatal("expected context error during injected delay")
	}
	if time.Since(start) > time.Second {
		t.Fatal("injected delay ignored cancellation")
	}
}

// FaultTransport works over the real TCP path too: kill pooled connections
// mid-workload and the next calls transparently re-dial.
func TestFaultKillConnectionsOverTCP(t *testing.T) {
	srv, err := ListenTCP(1, "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp := NewTCPTransport(map[proto.NodeID]string{1: srv.Addr()})
	defer tcp.Close()
	ft := NewFaultTransport(tcp, 7)

	if _, err := ft.Call(context.Background(), 0, 1, ping(1)); err != nil {
		t.Fatal(err)
	}
	ft.KillConnections()
	if _, err := ft.Call(context.Background(), 0, 1, ping(2)); err != nil {
		t.Fatalf("call after connection kill: %v", err)
	}
}
