package proto

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// fuzzShardMap derives a structurally plausible shard map from fuzz bytes:
// up to 4 shards over a small node range, slot owners always naming a real
// shard, MovingTo either NoShard or a real shard.
func fuzzShardMap(z *fzReader) ShardMap {
	shards := int(z.byte()%4) + 1
	m := ShardMap{Epoch: z.u64() % 1000, Slots: make([]SlotEntry, NumSlots)}
	node := 0
	for s := 0; s < shards; s++ {
		spec := ShardSpec{ID: ShardID(s)}
		for n := int(z.byte()%4) + 1; n > 0; n-- {
			spec.Members = append(spec.Members, NodeID(node))
			node++
		}
		m.Shards = append(m.Shards, spec)
	}
	for i := range m.Slots {
		m.Slots[i].Owner = ShardID(int(z.byte()) % shards)
		if z.byte()%4 == 0 {
			m.Slots[i].MovingTo = ShardID(int(z.byte()) % shards)
		} else {
			m.Slots[i].MovingTo = NoShard
		}
	}
	return m
}

// fuzzPrepareReq builds the 2PC prepare request, the message a cross-shard
// commit fans out per participating shard.
func fuzzPrepareReq(z *fzReader) PrepareReq {
	req := PrepareReq{
		Txn:   TxnID(z.u64()),
		Owner: TxnID(z.u64()),
		TC:    TraceContext{Trace: z.u64(), Span: z.u64(), Parent: z.u64()},
	}
	for n := int(z.byte() % 5); n > 0; n-- {
		req.Reads = append(req.Reads, DataItem{
			ID:         ObjectID(z.str()),
			Version:    Version(z.u64()),
			OwnerDepth: int(int8(z.byte())),
			OwnerChk:   int(int8(z.byte())),
		})
	}
	for n := int(z.byte() % 5); n > 0; n-- {
		c := ObjectCopy{ID: ObjectID(z.str()), Version: Version(z.u64())}
		if z.byte()&1 == 1 {
			c.Val = Int64(int64(z.u64()))
		}
		req.Writes = append(req.Writes, c)
	}
	for n := int(z.byte() % 4); n > 0; n-- {
		req.AbsLocks = append(req.AbsLocks, z.str())
	}
	return req
}

// gobRT pushes msg through a gob round trip into out (a pointer).
func gobRT(t *testing.T, msg, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
}

// normalizeMap maps gob's nil/empty-slice ambiguity away.
func normalizeMap(m ShardMap) ShardMap {
	if len(m.Slots) == 0 {
		m.Slots = nil
	}
	if len(m.Shards) == 0 {
		m.Shards = nil
	}
	for i := range m.Shards {
		if len(m.Shards[i].Members) == 0 {
			m.Shards[i].Members = nil
		}
	}
	return m
}

func normalizePrepareReq(r PrepareReq) PrepareReq {
	if len(r.Reads) == 0 {
		r.Reads = nil
	}
	if len(r.Writes) == 0 {
		r.Writes = nil
	}
	if len(r.AbsLocks) == 0 {
		r.AbsLocks = nil
	}
	return r
}

// FuzzShardWire exercises the sharding and 2PC wire messages: arbitrary
// bytes must never panic the codec's decoder, and structured messages
// derived from the same bytes must survive a binary-codec round trip with
// exactly what a gob round trip (the test-only oracle) delivers.
func FuzzShardWire(f *testing.F) {
	for _, seed := range shardFuzzSeedInputs() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Robustness: attacker-shaped bytes error, never panic.
		if msg, err := DecodeWire(data); err == nil {
			if _, ok := AppendWire(nil, msg); !ok {
				t.Fatalf("decoded %T but cannot re-encode", msg)
			}
		}

		z := &fzReader{d: data}

		// Shard map, the reconfiguration messages wrapping it, and the
		// migration drain messages.
		m := fuzzShardMap(z)
		upd := wireRoundTrip(t, MapUpdateReq{Map: m}).(MapUpdateReq)
		if a, b := normalizeMap(m), normalizeMap(upd.Map); !reflect.DeepEqual(a, b) {
			t.Fatalf("MapUpdateReq round trip:\n in: %+v\nout: %+v", a, b)
		}
		dump := SlotDumpRep{Protected: z.byte()&1 == 1}
		for n := int(z.byte() % 5); n > 0; n-- {
			dump.Copies = append(dump.Copies, ObjectCopy{ID: ObjectID(z.str()), Version: Version(z.u64()), Val: Int64(int64(z.u64()))})
		}
		slots := SlotDumpReq{}
		for n := int(z.byte() % 5); n > 0; n-- {
			slots.Slots = append(slots.Slots, SlotOf(ObjectID(z.str())))
		}
		for _, msg := range []any{ShardMapReq{}, ShardMapRep{Map: m}, MapUpdateReq{Map: m},
			MapUpdateRep{Epoch: m.Epoch}, slots, dump, InstallReq{Copies: dump.Copies},
			InstallRep{Installed: len(dump.Copies)}} {
			if got, want := wireRoundTrip(t, msg), gobIfaceRoundTrip(t, msg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%T binary codec diverges from gob:\n wire: %+v\n  gob: %+v", msg, got, want)
			}
		}

		// 2PC messages: gob round trip plus binary-codec equivalence.
		preq := fuzzPrepareReq(z)
		var preqOut PrepareReq
		gobRT(t, preq, &preqOut)
		if a, b := normalizePrepareReq(preq), normalizePrepareReq(preqOut); !reflect.DeepEqual(a, b) {
			t.Fatalf("PrepareReq round trip:\n in: %+v\nout: %+v", a, b)
		}
		wire := wireRoundTrip(t, preq)
		if a, b := normalizePrepareReq(preq), normalizePrepareReq(wire.(PrepareReq)); !reflect.DeepEqual(a, b) {
			t.Fatalf("PrepareReq binary codec diverges from gob:\n in: %+v\nout: %+v", a, b)
		}
		prep := PrepareRep{OK: z.byte()&1 == 1, WrongShard: z.byte()&1 == 1}
		if got := wireRoundTrip(t, prep).(PrepareRep); got != prep {
			t.Fatalf("PrepareRep binary codec: in %+v out %+v", prep, got)
		}
		dec := DecideReq{Txn: TxnID(z.u64()), Commit: z.byte()&1 == 1, TC: TraceContext{Trace: z.u64()}}
		for n := int(z.byte() % 4); n > 0; n-- {
			dec.Writes = append(dec.Writes, ObjectCopy{ID: ObjectID(z.str()), Version: Version(z.u64()), Val: Int64(int64(z.u64()))})
		}
		got := wireRoundTrip(t, dec).(DecideReq)
		if got.Txn != dec.Txn || got.Commit != dec.Commit || len(got.Writes) != len(dec.Writes) {
			t.Fatalf("DecideReq binary codec: in %+v out %+v", dec, got)
		}
	})
}

// shardFuzzSeedInputs is the in-code seed corpus for FuzzShardWire: binary
// encodings of representative shard/2PC messages plus branch-driving byte
// patterns. TestWriteShardFuzzCorpus mirrors these into testdata/fuzz.
func shardFuzzSeedInputs() [][]byte {
	enc := func(msg any) []byte {
		b, err := EncodeWire(nil, msg)
		if err != nil {
			panic(err)
		}
		return b
	}
	m := PartitionMap([]NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 4)
	moving := m.Clone()
	moving.Epoch++
	moving.Slots[3].MovingTo = 1
	return [][]byte{
		{},
		[]byte("shards"),
		enc(ShardMapRep{Map: m}),
		enc(MapUpdateReq{Map: moving}),
		enc(SlotDumpRep{Copies: []ObjectCopy{{ID: "acct/x", Version: 7, Val: Int64(93)}}, Protected: true}),
		enc(InstallReq{Copies: []ObjectCopy{{ID: "acct/x", Version: 7, Val: Int64(93)}}}),
		enc(PrepareReq{Txn: 9, Reads: []DataItem{{ID: "r", Version: 2, OwnerDepth: 0, OwnerChk: NoChk}},
			Writes: []ObjectCopy{{ID: "w", Version: 3, Val: Int64(-1)}}, Owner: 9}),
		enc(PrepareRep{OK: false, WrongShard: true}),
		bytes.Repeat([]byte{0xa5, 0x00, 0x3c}, 40),
	}
}

// TestWriteShardFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzShardWire from shardFuzzSeedInputs. It only runs when
// WRITE_FUZZ_CORPUS is set:
//
//	WRITE_FUZZ_CORPUS=1 go test -run TestWriteShardFuzzCorpus ./internal/proto/
func TestWriteShardFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzShardWire")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range shardFuzzSeedInputs() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardFuzzCorpusPresent guards the checked-in corpus: the fuzz smoke in
// `make check` seeds from testdata/fuzz/FuzzShardWire, so deleting or
// emptying it must fail the build.
func TestShardFuzzCorpusPresent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzShardWire")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("shard fuzz corpus missing: %v", err)
	}
	if want := len(shardFuzzSeedInputs()); len(entries) < want {
		t.Fatalf("shard fuzz corpus regressed: %d files on disk, %d seeds expected "+
			"(regenerate with WRITE_FUZZ_CORPUS=1 go test -run TestWriteShardFuzzCorpus ./internal/proto/)",
			len(entries), want)
	}
}
