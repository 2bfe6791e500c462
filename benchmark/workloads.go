package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"qrdtm/internal/bench"
	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// txnFunc runs one root transaction on a client's runtime. Each client owns
// its txnFunc (and the RNG inside it), so calls need no synchronisation.
type txnFunc func(ctx context.Context, rt *core.Runtime) error

// instance is one seeded instantiation of a workload: the objects to load,
// one transaction source per client, and the output check.
type instance interface {
	objects() []proto.ObjectCopy
	client(c int) txnFunc
	// verify checks committed state after the run, once every client has
	// stopped. unaccounted counts transactions whose effect the oracle cannot
	// find (or finds twice); err reports a broken invariant.
	verify(f *fixture) (unaccounted int, err error)
}

// workloadDef is one registered workload: why it exists, its cluster variant
// and its instance constructor. Names are fixed; later issues cite them.
type workloadDef struct {
	name    string
	why     string
	durable bool
	obsPass bool // obs.overhead_frac is measured on this workload
	make    func(seed uint64, clients int) instance
}

var workloadDefs = []workloadDef{
	{
		name:    "bank_tcp",
		why:     "13-node TCP, 1024 accounts, one transfer per txn: the conflict-free commit path, where cluster+proto do most of the work",
		obsPass: true,
		make:    func(seed uint64, clients int) instance { return newBank(1024, seed, clients) },
	},
	{
		name:    "bank_wal",
		why:     "bank_tcp with every replica on a 1 ms group-commit WAL: only durability differs, so the gap to bank_tcp is the WAL",
		durable: true,
		make:    func(seed uint64, clients int) instance { return newBank(1024, seed, clients) },
	},
	{
		name: "hashmap_cn_read",
		why:  "closed-nested 80%-read hashmap: many read-quorum rounds, local commits and gob-fallback values, so the read path sets the result",
		make: newHashmap,
	},
	{
		name: "bank_hot",
		why:  "bank_tcp on 8 accounts: conflict-dominated, so core backoff/retry and replica lock denial set the tail",
		make: func(seed uint64, clients int) instance { return newBank(8, seed, clients) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- bank ----

const bankInitBalance = 1000

// bank is the transfer workload: each transaction moves one unit between two
// distinct accounts (2 reads + 2 writes). Every client keeps the net change
// its committed transfers made to each account, so the oracle can check every
// balance exactly, not only their sum.
type bank struct {
	ids    []proto.ObjectID
	seed   uint64
	deltas [][]int64 // [client][account]
}

func newBank(accounts int, seed uint64, clients int) instance {
	b := &bank{ids: make([]proto.ObjectID, accounts), seed: seed, deltas: make([][]int64, clients)}
	for i := range b.ids {
		b.ids[i] = proto.ObjectID(fmt.Sprintf("acct/%d", i))
	}
	for c := range b.deltas {
		b.deltas[c] = make([]int64, accounts)
	}
	return b
}

func (b *bank) objects() []proto.ObjectCopy {
	out := make([]proto.ObjectCopy, len(b.ids))
	for i, id := range b.ids {
		out[i] = proto.ObjectCopy{ID: id, Version: 1, Val: proto.Int64(bankInitBalance)}
	}
	return out
}

func (b *bank) client(c int) txnFunc {
	rng := rand.New(rand.NewPCG(b.seed, uint64(c)))
	delta := b.deltas[c]
	return func(ctx context.Context, rt *core.Runtime) error {
		from := rng.IntN(len(b.ids))
		to := rng.IntN(len(b.ids) - 1)
		if to >= from {
			to++
		}
		err := rt.Atomic(ctx, func(tx *core.Txn) error {
			fv, err := tx.Read(b.ids[from])
			if err != nil {
				return err
			}
			tv, err := tx.Read(b.ids[to])
			if err != nil {
				return err
			}
			if err := tx.Write(b.ids[from], fv.(proto.Int64)-1); err != nil {
				return err
			}
			return tx.Write(b.ids[to], tv.(proto.Int64)+1)
		})
		if err == nil {
			delta[from]--
			delta[to]++
		}
		return err
	}
}

func (b *bank) verify(f *fixture) (int, error) {
	var total, off int64
	for i, id := range b.ids {
		cp, ok := f.latest(id)
		if !ok {
			return 0, fmt.Errorf("bank: account %v has no copy on any replica", id)
		}
		got := int64(cp.Val.(proto.Int64))
		want := int64(bankInitBalance)
		for _, d := range b.deltas {
			want += d[i]
		}
		total += got
		if got > want {
			off += got - want
		} else {
			off += want - got
		}
	}
	if want := int64(len(b.ids)) * bankInitBalance; total != want {
		return int((off + 1) / 2), fmt.Errorf("bank: conservation violated: total = %d, want %d", total, want)
	}
	// Each lost or doubled transfer leaves two accounts one unit off.
	return int((off + 1) / 2), nil
}

// ---- hashmap ----

// hashmapRun drives the repo's hashmap benchmark through AtomicSteps, so in
// core.Closed every operation is a closed-nested subtransaction.
type hashmapRun struct {
	w    bench.Workload
	p    bench.Params
	seed uint64
}

func newHashmap(seed uint64, _ int) instance {
	w, err := bench.New("hashmap")
	if err != nil {
		panic(err) // the name is a constant of this file
	}
	return &hashmapRun{w: w, p: bench.Params{Objects: 128, Ops: 4, ReadRatio: 0.8}, seed: seed}
}

func (h *hashmapRun) objects() []proto.ObjectCopy {
	return h.w.Setup(h.p, rand.New(rand.NewPCG(h.seed, 0x5e7)))
}

func (h *hashmapRun) client(c int) txnFunc {
	rng := rand.New(rand.NewPCG(h.seed, uint64(c)))
	return func(ctx context.Context, rt *core.Runtime) error {
		st, steps := h.w.NewTxn(rng, h.p)
		_, err := rt.AtomicSteps(ctx, st, steps)
		return err
	}
}

func (h *hashmapRun) verify(f *fixture) (int, error) {
	return 0, h.w.Verify(h.p, func(id proto.ObjectID) (proto.Value, bool) {
		cp, ok := f.latest(id)
		if !ok || cp.Val == nil {
			return nil, false
		}
		return cp.Val, true
	})
}
