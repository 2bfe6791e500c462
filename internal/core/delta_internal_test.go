package core

import (
	"testing"
	"time"

	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
)

func fpEntry(id string, v proto.Version, depth int) *entry {
	return &entry{
		copyv:      proto.ObjectCopy{ID: proto.ObjectID(id), Version: v},
		ownerDepth: depth,
		ownerChk:   proto.NoChk,
	}
}

// TestFootprintLogWatermarks table-drives the client side of the delta
// protocol: how fpRewind (partial abort, checkpoint rollback) and fpReown
// (CT merge) transform the root's footprint log and the per-member
// watermarks.
func TestFootprintLogWatermarks(t *testing.T) {
	type wm = map[proto.NodeID]int
	cases := []struct {
		name      string
		appends   int // entries appended before the transform
		wm        wm  // watermarks before the transform
		transform func(tx *Txn)
		wantLen   int
		wantWM    wm
		wantDepth []int // expected OwnerDepth per remaining log entry
	}{
		{
			name:      "rewind truncates log and clamps watermarks",
			appends:   4,
			wm:        wm{1: 4, 2: 2, 3: 0},
			transform: func(tx *Txn) { tx.fpRewind(2) },
			wantLen:   2,
			wantWM:    wm{1: 2, 2: 2, 3: 0},
			wantDepth: []int{1, 1},
		},
		{
			name:      "rewind to zero discards everything",
			appends:   3,
			wm:        wm{1: 3, 2: 1},
			transform: func(tx *Txn) { tx.fpRewind(0) },
			wantLen:   0,
			wantWM:    wm{1: 0, 2: 0},
			wantDepth: nil,
		},
		{
			name:      "rewind past end is a no-op",
			appends:   2,
			wm:        wm{1: 2},
			transform: func(tx *Txn) { tx.fpRewind(5) },
			wantLen:   2,
			wantWM:    wm{1: 2},
			wantDepth: []int{1, 1},
		},
		{
			// Regression: watermarks past the merge mark MUST be clamped so
			// the re-owned suffix is re-shipped with its new depth. A replica
			// session holding the child's old depth routes a later version
			// conflict at a subtransaction that no longer owns the entry;
			// aborting it cannot clear the conflict, and the client livelocks
			// in a child abort/retry loop.
			name:    "reown rewrites suffix depths and clamps watermarks to the mark",
			appends: 3,
			wm:      wm{1: 3, 2: 1},
			transform: func(tx *Txn) {
				tx.fpReown(1, 0) // CT at depth 1 merges entries [1:) into the root
			},
			wantLen:   3,
			wantWM:    wm{1: 1, 2: 1}, // member 1 re-ships [1:), member 2 untouched
			wantDepth: []int{1, 0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tx := &Txn{wm: make(map[proto.NodeID]int)}
			for i := 0; i < tc.appends; i++ {
				tx.fpAppend(fpEntry("o", proto.Version(i+1), 1))
			}
			for n, w := range tc.wm {
				tx.wm[n] = w
			}
			tc.transform(tx)
			if len(tx.fpLog) != tc.wantLen {
				t.Fatalf("log length = %d, want %d", len(tx.fpLog), tc.wantLen)
			}
			for n, want := range tc.wantWM {
				if got := tx.wm[n]; got != want {
					t.Errorf("wm[%v] = %d, want %d", n, got, want)
				}
			}
			for i, want := range tc.wantDepth {
				if got := tx.fpLog[i].OwnerDepth; got != want {
					t.Errorf("fpLog[%d].OwnerDepth = %d, want %d", i, got, want)
				}
			}
		})
	}
}

// TestChildLogOperationsReachRoot checks the nesting tree shares one log:
// children append to and rewind the root's log through root().
func TestChildLogOperationsReachRoot(t *testing.T) {
	root := &Txn{wm: map[proto.NodeID]int{1: 0}}
	root.fpAppend(fpEntry("a", 1, 0))
	child := root.child()
	child.fpMark = len(root.fpLog)
	grandchild := child.child()
	grandchild.fpAppend(fpEntry("b", 1, 2))
	if len(root.fpLog) != 2 {
		t.Fatalf("root log length = %d, want 2 (grandchild append must reach root)", len(root.fpLog))
	}
	child.fpRewind(child.fpMark)
	if len(root.fpLog) != 1 || root.fpLog[0].ID != "a" {
		t.Fatalf("root log after child rewind = %+v, want just a", root.fpLog)
	}
}

// TestBackoffDelayNeverExceedsMax is the regression test for the jitter
// floor bug: the +base/2 de-synchronization term used to be added AFTER the
// window was capped at BackoffMax, so a maximal random sample slept
// base/2 past the configured maximum. The final value must now be capped.
func TestBackoffDelayNeverExceedsMax(t *testing.T) {
	rt := &Runtime{
		backoffBase: 4 * time.Millisecond,
		backoffMax:  5 * time.Millisecond,
	}
	// Pin the sampler to the worst case: the top of the capped window.
	worst := func(n int64) int64 { return n - 1 }
	for attempt := 0; attempt < 20; attempt++ {
		if d := rt.backoffDelay(attempt, worst); d > rt.backoffMax {
			t.Fatalf("attempt %d: delay %v exceeds BackoffMax %v", attempt, d, rt.backoffMax)
		}
	}
	// The jitter floor still applies when it fits under the cap.
	small := &Runtime{backoffBase: time.Millisecond, backoffMax: 100 * time.Millisecond}
	zero := func(int64) int64 { return 0 }
	if d := small.backoffDelay(0, zero); d != small.backoffBase/2 {
		t.Fatalf("floor = %v, want %v", d, small.backoffBase/2)
	}
	// Negative base disables backoff entirely.
	off := &Runtime{backoffBase: -1, backoffMax: time.Millisecond}
	if d := off.backoffDelay(3, worst); d != 0 {
		t.Fatalf("disabled backoff returned %v", d)
	}
}

// TestBackoffRecordsTheSleep checks that the backoff site records the sleep
// that happened, not the delay asked for: the platform timer may round a
// short request up well past it, and the recorded sample must say so.
func TestBackoffRecordsTheSleep(t *testing.T) {
	reg := obs.NewRegistry()
	// A base above the cap pins every delay to BackoffMax, whatever the
	// sampler draws.
	rt := &Runtime{obs: reg, backoffBase: 2 * time.Millisecond, backoffMax: time.Millisecond}
	requested := rt.backoffMax
	for _, randN := range []func(int64) int64{func(int64) int64 { return 0 }, func(n int64) int64 { return n - 1 }} {
		if d := rt.backoffDelay(0, randN); d != requested {
			t.Fatalf("delay = %v, want the pinned %v", d, requested)
		}
	}
	t0 := time.Now()
	rt.backoff(0)
	wall := time.Since(t0)
	h := reg.Snapshot().Hists[obs.SiteBackoff]
	if h.Count != 1 {
		t.Fatalf("%d backoff samples, want 1", h.Count)
	}
	if slept := time.Duration(h.Sum); slept < requested || slept > wall {
		t.Fatalf("recorded %v, want between the requested %v and the measured wall time %v", slept, requested, wall)
	}
}
