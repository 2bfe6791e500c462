package wal

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qrdtm/internal/proto"
	"qrdtm/internal/store"
)

// Property-based recovery equivalence: a seeded random operation sequence is
// applied to a live store while being logged; for EVERY prefix length the
// log+snapshot is restored into a fresh store, which must be byte-identical
// to a store that simply executed that prefix — same versions, values,
// protected flags, and protectors. Explicit snapshots are interleaved so the
// prefixes cover snapshot-only, snapshot+tail, and tail-only restores.

// walOp is one logged store mutation: apply(st) mirrors what the server does
// before logging, so op streams replayed through wal.Apply must converge to
// the same state.
type walOp struct {
	kind Kind
	msg  any
}

func (op walOp) apply(st *store.Store) {
	switch m := op.msg.(type) {
	case proto.LoadReq:
		st.Load(m.Objects)
	case proto.PrepareReq:
		// The generator only emits prepares it has verified will succeed
		// (server logs prepare only after an OK PrepareOpen).
		if !st.PrepareOpen(m.Txn, m.Reads, m.Writes, m.AbsLocks, m.Owner) {
			panic("generated prepare was rejected")
		}
	case proto.DecideReq:
		if m.Commit {
			st.Commit(m.Txn, m.Writes)
		} else {
			ids := make([]proto.ObjectID, len(m.Writes))
			for i, w := range m.Writes {
				ids[i] = w.ID
			}
			st.Abort(m.Txn, ids)
		}
	case proto.InstallReq:
		st.InstallNewer(m.Copies)
	default:
		panic(fmt.Sprintf("unexpected op %T", op.msg))
	}
}

// genOps builds a deterministic mixed workload over a small object set:
// initial load, then prepares (some of which stay undecided — the restored
// store must preserve their protections), commits, aborts, and installs.
func genOps(rng *rand.Rand, n int) []walOp {
	objs := make([]proto.ObjectID, 8)
	for i := range objs {
		objs[i] = proto.ObjectID(fmt.Sprintf("obj-%d", i))
	}
	// shadow tracks enough state to only generate valid ops: current
	// versions and which objects are protected by which pending txn.
	version := map[proto.ObjectID]proto.Version{}
	type pending struct {
		txn    proto.TxnID
		writes []proto.ObjectCopy
	}
	var open []pending
	protected := map[proto.ObjectID]bool{}

	load := proto.LoadReq{}
	for _, id := range objs {
		version[id] = 1
		load.Objects = append(load.Objects, proto.ObjectCopy{ID: id, Version: 1, Val: proto.Int64(int64(rng.Intn(100)))})
	}
	ops := []walOp{{KindLoad, load}}
	nextTxn := proto.TxnID(100)

	for len(ops) < n {
		switch r := rng.Intn(10); {
		case r < 4 && len(open) < 4:
			// Prepare a txn writing 1-2 currently unprotected objects.
			var free []proto.ObjectID
			for _, id := range objs {
				if !protected[id] {
					free = append(free, id)
				}
			}
			if len(free) == 0 {
				continue
			}
			rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
			p := pending{txn: nextTxn}
			nextTxn++
			for _, id := range free[:1+rng.Intn(min(2, len(free)))] {
				p.writes = append(p.writes, proto.ObjectCopy{
					ID: id, Version: version[id] + 1, Val: proto.Int64(int64(rng.Intn(1000))),
				})
				protected[id] = true
			}
			open = append(open, p)
			ops = append(ops, walOp{KindPrepare, proto.PrepareReq{Txn: p.txn, Writes: p.writes, Owner: p.txn}})
		case r < 8 && len(open) > 0:
			// Decide a random pending txn (bias to commit).
			i := rng.Intn(len(open))
			p := open[i]
			open = append(open[:i], open[i+1:]...)
			commit := rng.Intn(4) != 0
			for _, w := range p.writes {
				protected[w.ID] = false
				if commit {
					version[w.ID] = w.Version
				}
			}
			ops = append(ops, walOp{KindDecide, proto.DecideReq{Txn: p.txn, Commit: commit, Writes: p.writes}})
		default:
			// Install a remote copy: strictly newer for one object, stale for
			// another (the stale one must be a no-op on both sides).
			id := objs[rng.Intn(len(objs))]
			if protected[id] {
				continue
			}
			version[id] += 2
			ops = append(ops, walOp{KindInstall, proto.InstallReq{Copies: []proto.ObjectCopy{
				{ID: id, Version: version[id], Val: proto.Int64(int64(rng.Intn(1000)))},
				{ID: objs[rng.Intn(len(objs))], Version: 0, Val: proto.Int64(-1)},
			}}})
		}
	}
	return ops
}

func sortedEntries(st *store.Store) []store.Entry {
	es := st.State()
	sort.Slice(es, func(i, j int) bool { return es[i].Copy.ID < es[j].Copy.ID })
	return es
}

func TestRecoveryEquivalenceEveryPrefix(t *testing.T) {
	checkEveryPrefix(t, func(w *WAL) error { return w.Close() })
}

// TestRecoveryEquivalenceEveryPrefixAbandoned crashes instead of closing:
// the active segment keeps its unwritten reservation, which replay must read
// as a clean end of log.
func TestRecoveryEquivalenceEveryPrefixAbandoned(t *testing.T) {
	checkEveryPrefix(t, func(w *WAL) error { abandon(w); return nil })
}

// checkEveryPrefix logs every prefix of a seeded op sequence, ends the log
// with finish, and requires the restored store to equal the live one.
func checkEveryPrefix(t *testing.T, finish func(*WAL) error) {
	const nOps = 60
	const snapEvery = 7 // prefixes land before, on, and after snapshot points
	ops := genOps(rand.New(rand.NewSource(42)), nOps)

	// Reference states: live[k] = store state after executing ops[:k].
	live := make([][]store.Entry, nOps+1)
	{
		st := store.New()
		live[0] = sortedEntries(st)
		for k, op := range ops {
			op.apply(st)
			live[k+1] = sortedEntries(st)
		}
	}

	for k := 0; k <= nOps; k++ {
		dir := t.TempDir()
		st := store.New()
		w, res, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("prefix %d: Open: %v", k, err)
		}
		w.SetSnapshotSource(func() (SnapshotState, error) {
			return SnapshotState{Objects: st.State()}, nil
		})
		for i := 0; i < k; i++ {
			ops[i].apply(st)
			if err := w.Append(ops[i].kind, ops[i].msg); err != nil {
				t.Fatalf("prefix %d: append op %d: %v", k, i, err)
			}
			if (i+1)%snapEvery == 0 {
				if err := w.Snapshot(); err != nil {
					t.Fatalf("prefix %d: snapshot at op %d: %v", k, i, err)
				}
			}
		}
		if len(res.Records) != 0 || res.Snapshot != nil {
			t.Fatalf("prefix %d: fresh dir not empty", k)
		}
		// Crash: end the log without a final snapshot, then restore.
		if err := finish(w); err != nil {
			t.Fatalf("prefix %d: close: %v", k, err)
		}
		w2, res2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("prefix %d: reopen: %v", k, err)
		}
		if res2.Torn {
			t.Fatalf("prefix %d: a log with no partial write reported torn", k)
		}
		restored := store.New()
		if res2.Snapshot != nil {
			restored.RestoreState(res2.Snapshot.Objects)
		}
		for _, rec := range res2.Records {
			Apply(restored, rec)
		}
		if got := sortedEntries(restored); !reflect.DeepEqual(got, live[k]) {
			t.Fatalf("prefix %d (snapshot=%v, tail=%d): restored state diverged\n got: %+v\nwant: %+v",
				k, res2.Snapshot != nil, len(res2.Records), got, live[k])
		}
		w2.Close()
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
