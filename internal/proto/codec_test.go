package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// gob is the codec's equivalence oracle, in tests only: it encodes
// interface-held messages and values by registered type.
func init() {
	for _, v := range []any{
		ReadReq{}, ReadRep{}, BatchReadReq{}, BatchReadRep{}, PrepareReq{}, PrepareRep{},
		DecideReq{}, DecideRep{}, ReleaseReq{}, ReleaseRep{}, LoadReq{}, LoadRep{},
		DumpReq{}, DumpRep{}, ShardMapReq{}, ShardMapRep{}, MapUpdateReq{}, MapUpdateRep{},
		SlotDumpReq{}, SlotDumpRep{}, InstallReq{}, InstallRep{}, LogTailReq{}, LogTailRep{},
		TraceDumpReq{}, TraceDumpRep{},
		Int64(0), Float64(0), String(""), Bool(false), Bytes(nil), Int64Slice(nil), IDSlice(nil),
		customWireValue{},
	} {
		gob.Register(v)
	}
}

// gobIfaceRoundTrip pushes msg through gob as an interface value (encode as
// interface, decode as interface), yielding the normalization gob applies —
// zero-length slices come back nil. The binary codec must be
// observationally equivalent to this.
func gobIfaceRoundTrip(t testing.TB, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&msg); err != nil {
		t.Fatalf("gob encode %T: %v", msg, err)
	}
	var out any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", msg, err)
	}
	return out
}

// wireRoundTrip pushes msg through the binary codec.
func wireRoundTrip(t testing.TB, msg any) any {
	t.Helper()
	buf, ok := AppendWire(nil, msg)
	if !ok {
		t.Fatalf("AppendWire does not cover %T", msg)
	}
	out, err := DecodeWire(buf)
	if err != nil {
		t.Fatalf("DecodeWire(%T): %v", msg, err)
	}
	return out
}

// customWireValue is an application-defined payload exercising the tagged
// value encoding inside ObjectCopy values; the test registers it with gob
// too, which keeps gob usable as the equivalence oracle.
type customWireValue struct {
	A int64
	B string
}

func (v customWireValue) CloneValue() Value { return v }

// customWireTag is customWireValue's RegisterValue tag.
const customWireTag = 0xf0

func (v customWireValue) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, v.A)
	return appendWireString(b, v.B), nil
}

func decodeCustomWireValue(b []byte) (Value, error) {
	a, n := binary.Varint(b)
	if n <= 0 {
		return nil, errors.New("bad A")
	}
	l, m := binary.Uvarint(b[n:])
	if m <= 0 || l != uint64(len(b)-n-m) {
		return nil, errors.New("bad B")
	}
	return customWireValue{A: a, B: string(b[n+m:])}, nil
}

func init() { RegisterValue(customWireTag, customWireValue{}, decodeCustomWireValue) }

// codecExamples is one representative message per covered type, with the
// corner shapes that have bitten before: nil values, version-0 copies,
// negative depth/epoch sentinels, zero and valid trace contexts, and an
// app-defined Value that rides its registered tag.
func codecExamples() []any {
	return []any{
		ReadReq{Txn: 7, Obj: "acct/alice", Write: true, Depth: 2,
			DataSet: []DataItem{{ID: "x", Version: 4, OwnerDepth: 1, OwnerChk: NoChk}},
			TC:      TraceContext{Trace: 9, Span: 10, Parent: 11}},
		ReadReq{Txn: 1, Obj: ""}, // validation-only read, untraced
		ReadRep{OK: true, Copy: ObjectCopy{ID: "x", Version: 4, Val: Int64(42)},
			AbortDepth: NoDepth, AbortChk: NoChk},
		ReadRep{AbortDepth: 1, AbortChk: 0, LockOnly: true},
		BatchReadReq{Txn: 3, Objs: []ObjectID{"a", "b", "c"}, Write: true, Depth: 1,
			Rqv: true, From: 2,
			Delta: []DataItem{{ID: "a", Version: 1, OwnerDepth: 0, OwnerChk: NoChk}}},
		BatchReadRep{OK: true, AbortDepth: NoDepth, AbortChk: NoChk,
			Copies: []ObjectCopy{
				{ID: "a", Version: 1, Val: String("s")},
				{ID: "fresh"}, // version-0, nil value
				{ID: "f", Version: 2, Val: Float64(2.5)},
				{ID: "b", Version: 3, Val: Bool(true)},
				{ID: "raw", Version: 4, Val: Bytes{1, 2, 3}},
				{ID: "is", Version: 5, Val: Int64Slice{-1, 0, 7}},
				{ID: "ids", Version: 6, Val: IDSlice{"p", "q"}},
				{ID: "app", Version: 7, Val: customWireValue{A: -9, B: "blob"}},
			}},
		BatchReadRep{NeedFull: true, AbortDepth: NoDepth, AbortChk: NoChk},
		BatchReadRep{OK: true, AbortDepth: NoDepth, AbortChk: NoChk,
			Copies: []ObjectCopy{{ID: "hm/h2", Version: 3, Val: customWireValue{A: 1, B: "hm/n5"}}},
			Prefetch: []ObjectCopy{
				{ID: "hm/n5", Version: 1, Val: customWireValue{A: 5, B: "hm/n8"}},
				{ID: "hm/n8", Version: 2, Val: customWireValue{A: 8}},
			}},
		PrepareReq{Txn: 12, Reads: []DataItem{{ID: "r", Version: 3, OwnerDepth: 0, OwnerChk: 1}},
			Writes:   []ObjectCopy{{ID: "w", Version: 3, Val: Int64(-5)}},
			AbsLocks: []string{"bucket/3", "bucket/4"}, Owner: 11,
			TC: TraceContext{Trace: 1, Span: 2, Parent: 3}},
		PrepareRep{OK: true},
		PrepareRep{},
		DecideReq{Txn: 12, Commit: true,
			Writes: []ObjectCopy{{ID: "w", Version: 4, Val: Int64(6)}}},
		DecideReq{Txn: 13}, // abort decision, no writes
		DecideRep{},
		ReleaseReq{Owner: 11},
		ReleaseRep{},
		LoadReq{Objects: []ObjectCopy{{ID: "seed", Version: 1, Val: Int64(100)}}},
		LoadRep{},
		DumpReq{Obj: "x"},
		DumpRep{OK: true, Copy: ObjectCopy{ID: "x", Version: 9, Val: String("v")}},
		DumpRep{},
	}
}

// coldCodecExamples covers the reconfiguration, catch-up and trace
// messages: a migrating shard map, the zero map, app values in drained and
// installed copies, both log record kinds, and spans with sentinels, notes
// and items.
func coldCodecExamples() []any {
	m := PartitionMap([]NodeID{0, 1, 2, 3, 4, 5, 6}, 3)
	m.Slots[5].MovingTo = 2
	return []any{
		ShardMapReq{},
		ShardMapRep{Map: m},
		ShardMapRep{}, // unsharded: the zero map
		MapUpdateReq{Map: m},
		MapUpdateRep{Epoch: 7},
		SlotDumpReq{Slots: []int{0, 5, NumSlots - 1}},
		SlotDumpRep{Protected: true, Copies: []ObjectCopy{
			{ID: "acct/x", Version: 7, Val: Int64(93)},
			{ID: "app", Version: 2, Val: customWireValue{A: 3, B: "c"}},
		}},
		InstallReq{Copies: []ObjectCopy{{ID: "hm/n4", Version: 5, Val: customWireValue{A: -1, B: "hm/n9"}}}},
		InstallRep{Installed: 3},
		LogTailReq{After: 41, Max: 2048},
		LogTailRep{OK: true, Next: 44, More: true, Records: []LogRecord{
			{Index: 42, Kind: LogKindDecide, Txn: 9, Commit: true,
				Copies: []ObjectCopy{{ID: "w", Version: 4, Val: customWireValue{A: 4}}}},
			{Index: 44, Kind: LogKindInstall, Copies: []ObjectCopy{{ID: "seed", Version: 1, Val: Int64(100)}}},
		}},
		LogTailRep{Compacted: true},
		TraceDumpReq{},
		TraceDumpRep{Node: 3, Spans: []Span{
			{Trace: 1, ID: 2, Node: 3, Kind: SpanServeDecide, Start: 100, End: 250, Txn: 9, OK: true,
				Items: []SpanItem{{Obj: "w", Version: 4}}, Shard: 2},
			{Trace: 1, ID: 5, Parent: 2, Kind: SpanAbort, Start: -3, Obj: "x", Version: 3,
				Depth: NoDepth, Chk: NoChk, Note: "lock-denied"},
		}},
	}
}

// allCodecExamples is every example, hot and cold.
func allCodecExamples() []any { return append(codecExamples(), coldCodecExamples()...) }

// TestWireCodecMatchesGob pins the codec's contract: for every covered
// message, decode(binary-encode(m)) equals what the gob path would deliver.
func TestWireCodecMatchesGob(t *testing.T) {
	for _, msg := range allCodecExamples() {
		got := wireRoundTrip(t, msg)
		want := gobIfaceRoundTrip(t, msg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T diverges from gob:\n wire: %+v\n  gob: %+v", msg, got, want)
		}
	}
}

// TestWireCodecCompact sanity-checks the point of the exercise: the binary
// encoding of every message is smaller than a self-contained gob blob of it
// (gob re-sends type descriptors per blob).
func TestWireCodecCompact(t *testing.T) {
	for _, msg := range allCodecExamples() {
		wire, ok := AppendWire(nil, msg)
		if !ok {
			t.Fatalf("AppendWire does not cover %T", msg)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&msg); err != nil {
			t.Fatal(err)
		}
		if len(wire) >= buf.Len() {
			t.Errorf("%T: wire %d bytes >= gob %d bytes", msg, len(wire), buf.Len())
		}
	}
}

// TestWireCodecRejectsUnknown: a type the codec does not know is refused
// with an error naming it, and nothing is appended.
func TestWireCodecRejectsUnknown(t *testing.T) {
	type notAMessage struct{ X int }
	buf, ok := AppendWire(nil, notAMessage{X: 1})
	if ok || len(buf) != 0 {
		t.Fatalf("AppendWire accepted an unknown type (ok=%v, %d bytes)", ok, len(buf))
	}
	prefix := []byte{1, 2}
	out, err := EncodeWire(prefix, notAMessage{X: 1})
	if err == nil || !strings.Contains(err.Error(), "notAMessage") || !bytes.Equal(out, prefix) {
		t.Fatalf("EncodeWire(notAMessage) = %x, %v; want the prefix and an error naming the type", out, err)
	}
}

// TestWireCodecTruncation: every strict prefix of a valid encoding must
// error, never panic or succeed.
func TestWireCodecTruncation(t *testing.T) {
	for _, msg := range allCodecExamples() {
		full, _ := AppendWire(nil, msg)
		for cut := 0; cut < len(full); cut++ {
			if out, err := DecodeWire(full[:cut]); err == nil {
				// A prefix that happens to decode must at least not equal a
				// different message silently; zero-field messages (DecideRep)
				// have 1-byte encodings whose prefixes are empty and error.
				t.Fatalf("%T: prefix of %d/%d bytes decoded silently to %+v",
					msg, cut, len(full), out)
			}
		}
	}
}

// fuzzWireMessage derives one covered message from fuzz bytes. It reuses the
// fzReader derivation idiom from fuzz_test.go; Float64 payloads are built
// from integers so NaN never enters DeepEqual comparisons.
func fuzzWireMessage(z *fzReader) any {
	items := func() []DataItem {
		var out []DataItem
		for n := int(z.byte() % 5); n > 0; n-- {
			out = append(out, DataItem{
				ID:         ObjectID(z.str()),
				Version:    Version(z.u64()),
				OwnerDepth: int(int8(z.byte())),
				OwnerChk:   int(int8(z.byte())),
			})
		}
		return out
	}
	value := func() Value {
		switch z.byte() % 9 {
		case 0:
			return nil
		case 1:
			return Int64(int64(z.u64()))
		case 2:
			return Float64(int64(z.u64()))
		case 3:
			return String(z.str())
		case 4:
			return Bool(z.byte()&1 == 1)
		case 5:
			return Bytes(z.str())
		case 6:
			return Int64Slice{int64(z.u64()), int64(z.u64())}
		case 7:
			return customWireValue{A: int64(z.u64()), B: z.str()}
		default:
			return IDSlice{ObjectID(z.str())}
		}
	}
	copies := func() []ObjectCopy {
		var out []ObjectCopy
		for n := int(z.byte() % 5); n > 0; n-- {
			out = append(out, ObjectCopy{ID: ObjectID(z.str()), Version: Version(z.u64()), Val: value()})
		}
		return out
	}
	tc := func() TraceContext {
		if z.byte()&1 == 0 {
			return TraceContext{}
		}
		return TraceContext{Trace: z.u64() | 1, Span: z.u64(), Parent: z.u64()}
	}
	span := func() Span {
		s := Span{Trace: z.u64(), ID: z.u64(), Parent: z.u64(), Node: NodeID(int8(z.byte())),
			Kind: SpanKind(int8(z.byte())), Start: int64(z.u64()), End: int64(z.u64()),
			Txn: TxnID(z.u64()), Obj: ObjectID(z.str()), Version: Version(z.u64()),
			Depth: int(int8(z.byte())), Chk: int(int8(z.byte())), OK: z.byte()&1 == 1,
			Note: z.str(), Shard: int(int8(z.byte()))}
		for n := int(z.byte() % 3); n > 0; n-- {
			s.Items = append(s.Items, SpanItem{Obj: ObjectID(z.str()), Version: Version(z.u64())})
		}
		return s
	}
	switch z.byte() % 22 {
	case 0:
		return ReadReq{Txn: TxnID(z.u64()), Obj: ObjectID(z.str()),
			Write: z.byte()&1 == 1, Depth: int(int8(z.byte())), DataSet: items(), TC: tc()}
	case 1:
		return ReadRep{OK: z.byte()&1 == 1,
			Copy:       ObjectCopy{ID: ObjectID(z.str()), Version: Version(z.u64()), Val: value()},
			AbortDepth: int(int8(z.byte())), AbortChk: int(int8(z.byte())), LockOnly: z.byte()&1 == 1}
	case 2:
		req := BatchReadReq{Txn: TxnID(z.u64()), Write: z.byte()&1 == 1,
			Depth: int(int8(z.byte())), Rqv: z.byte()&1 == 1, From: int(z.byte()), Delta: items(), TC: tc()}
		for n := int(z.byte() % 5); n > 0; n-- {
			req.Objs = append(req.Objs, ObjectID(z.str()))
		}
		return req
	case 3:
		return BatchReadRep{OK: z.byte()&1 == 1, Copies: copies(),
			AbortDepth: int(int8(z.byte())), AbortChk: int(int8(z.byte())),
			LockOnly: z.byte()&1 == 1, NeedFull: z.byte()&1 == 1,
			WrongShard: z.byte()&1 == 1, Prefetch: copies()}
	case 4:
		req := PrepareReq{Txn: TxnID(z.u64()), Reads: items(), Writes: copies(),
			Owner: TxnID(z.u64()), TC: tc()}
		for n := int(z.byte() % 4); n > 0; n-- {
			req.AbsLocks = append(req.AbsLocks, z.str())
		}
		return req
	case 5:
		return PrepareRep{OK: z.byte()&1 == 1}
	case 6:
		return DecideReq{Txn: TxnID(z.u64()), Commit: z.byte()&1 == 1, Writes: copies(), TC: tc()}
	case 7:
		return ReleaseReq{Owner: TxnID(z.u64()), TC: tc()}
	case 8:
		return LoadReq{Objects: copies()}
	case 9:
		return DumpRep{OK: z.byte()&1 == 1,
			Copy: ObjectCopy{ID: ObjectID(z.str()), Version: Version(z.u64()), Val: value()}}
	case 10:
		return ShardMapReq{}
	case 11:
		return ShardMapRep{Map: fuzzShardMap(z)}
	case 12:
		return MapUpdateReq{Map: fuzzShardMap(z)}
	case 13:
		return MapUpdateRep{Epoch: z.u64()}
	case 14:
		var req SlotDumpReq
		for n := int(z.byte() % 5); n > 0; n-- {
			req.Slots = append(req.Slots, int(int8(z.byte())))
		}
		return req
	case 15:
		return SlotDumpRep{Copies: copies(), Protected: z.byte()&1 == 1}
	case 16:
		return InstallReq{Copies: copies()}
	case 17:
		return InstallRep{Installed: int(int64(z.u64()))}
	case 18:
		return LogTailReq{After: z.u64(), Max: int(int64(z.u64()))}
	case 19:
		rep := LogTailRep{OK: z.byte()&1 == 1, Compacted: z.byte()&1 == 1, Next: z.u64(), More: z.byte()&1 == 1}
		for n := int(z.byte() % 4); n > 0; n-- {
			rep.Records = append(rep.Records, LogRecord{Index: z.u64(), Kind: z.byte(),
				Txn: TxnID(z.u64()), Commit: z.byte()&1 == 1, Copies: copies()})
		}
		return rep
	case 20:
		return TraceDumpReq{}
	default:
		rep := TraceDumpRep{Node: NodeID(int8(z.byte()))}
		for n := int(z.byte() % 4); n > 0; n-- {
			rep.Spans = append(rep.Spans, span())
		}
		return rep
	}
}

// FuzzWireCodec is the binary codec's gob-equivalence fuzz target: raw bytes
// must never panic the frame decoder, and every structured message derived
// from those bytes must decode — through the binary codec — to exactly what
// a gob round trip delivers. Gob is the test-only equivalence oracle: it
// shares no code with the codec. Both the raw bytes and the structured
// encoding also decode through one intern table, warmed by every earlier
// input, to exactly what the table-less decode returns.
func FuzzWireCodec(f *testing.F) {
	for _, seed := range wireFuzzSeedInputs() {
		f.Add(seed)
	}
	var warmMu sync.Mutex
	warm := NewIDTable()
	sameAsWarm := func(t *testing.T, b []byte) {
		t.Helper()
		want, wantErr := DecodeWire(b)
		warmMu.Lock()
		got, err := warm.Decode(b)
		warmMu.Unlock()
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("interned decode = %+v (%v), table-less = %+v (%v)", got, err, want, wantErr)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsWarm(t, data)
		// Attacker-shaped bytes: errors expected, panics and giant
		// allocations are bugs.
		if msg, err := DecodeWire(data); err == nil {
			// Whatever decoded must re-encode canonically.
			re, ok := AppendWire(nil, msg)
			if !ok {
				t.Fatalf("decoded %T but cannot re-encode", msg)
			}
			if _, err := DecodeWire(re); err != nil {
				t.Fatalf("re-encode of decoded %T fails: %v", msg, err)
			}
		}

		// Structured equivalence against gob.
		z := &fzReader{d: data}
		msg := fuzzWireMessage(z)
		buf, ok := AppendWire(nil, msg)
		if !ok {
			t.Fatalf("AppendWire rejected %T", msg)
		}
		got, err := DecodeWire(buf)
		if err != nil {
			t.Fatalf("DecodeWire(%T): %v", msg, err)
		}
		sameAsWarm(t, buf)
		want := gobIfaceRoundTrip(t, msg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T diverges from gob:\n wire: %+v\n  gob: %+v", msg, got, want)
		}
	})
}

// TestIDTableInternsAndResets: an id decoded twice through one table is one
// string, and a table filled to its bound starts over instead of growing.
func TestIDTableInternsAndResets(t *testing.T) {
	tab := NewIDTable()
	rep := BatchReadRep{OK: true, Copies: []ObjectCopy{{ID: "acct/0007", Version: 3, Val: Int64(1)}}}
	b, ok := AppendWire(nil, rep)
	if !ok {
		t.Fatal("AppendWire rejected a BatchReadRep")
	}
	var ids []ObjectID
	for range 2 {
		msg, err := tab.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, msg.(BatchReadRep).Copies[0].ID)
	}
	if unsafe.StringData(string(ids[0])) != unsafe.StringData(string(ids[1])) {
		t.Fatal("the same id decoded twice through one table is two strings")
	}
	if msg, _ := DecodeWire(b); unsafe.StringData(string(msg.(BatchReadRep).Copies[0].ID)) == unsafe.StringData(string(ids[0])) {
		t.Fatal("the table-less decode shared the table's string")
	}

	for i := len(tab.ids); i < maxInterned; i++ {
		tab.intern([]byte(fmt.Sprintf("fill/%d", i)))
	}
	if len(tab.ids) != maxInterned {
		t.Fatalf("table holds %d ids, want the bound %d", len(tab.ids), maxInterned)
	}
	if id := tab.intern([]byte("one/more")); id != "one/more" || len(tab.ids) != 1 {
		t.Fatalf("past the bound: intern = %q and the table holds %d ids, want one/more and 1", id, len(tab.ids))
	}
}

// wireFuzzSeedInputs is the in-code seed corpus for FuzzWireCodec: valid
// binary encodings (so mutation explores near-valid frames), bytes that
// drive every branch of the structured derivation, and known nasties.
// TestWriteWireFuzzCorpus mirrors these into testdata/fuzz/FuzzWireCodec,
// and TestWireFuzzCorpusPresent fails CI if the checked-in corpus regresses.
func wireFuzzSeedInputs() [][]byte {
	var seeds [][]byte
	for i, msg := range codecExamples() {
		if i%3 != 0 { // a representative spread, not all 22
			continue
		}
		b, _ := AppendWire(nil, msg)
		seeds = append(seeds, b)
	}
	appRep, _ := AppendWire(nil, ReadRep{OK: true,
		Copy: ObjectCopy{ID: "hm/n7", Version: 3, Val: customWireValue{A: 77, B: "hm/n8"}}})
	seeds = append(seeds,
		[]byte{},
		[]byte{wireTagInvalid},
		[]byte{wireTagBatchReadRep, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}, // hostile slice count
		// An OK reply with no copies, sentinel depth/epoch and clear flags,
		// then a hostile Prefetch count.
		[]byte{wireTagBatchReadRep, 1, 0, 1, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		bytes.Repeat([]byte{0x80}, 24), // unterminated varint
		[]byte("qrdtm wire"),
		appRep,
		hostileAppValue(unknownWireTag, 0),
		hostileAppValue(customWireTag, 1<<62),
	)
	// The cold messages come last, so the earlier seeds keep their names:
	// each example, then hostile record and span counts.
	for _, msg := range coldCodecExamples() {
		b, _ := AppendWire(nil, msg)
		seeds = append(seeds, b)
	}
	seeds = append(seeds,
		[]byte{wireTagLogTailRep, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		[]byte{wireTagTraceDumpRep, 6, 0xff, 0xff, 0xff, 0xff, 0x0f},
	)
	return seeds
}

// unknownWireTag is a value tag no test registers.
const unknownWireTag = 0xee

// hostileAppValue is a ReadRep whose copy holds a wireValApp value with the
// given tag and declared payload length, followed by two payload bytes.
func hostileAppValue(tag byte, length uint64) []byte {
	b := []byte{wireTagReadRep, 1, 1, 'x', 1, wireValApp, tag}
	b = binary.AppendUvarint(b, length)
	return append(b, 0, 0)
}

// TestWriteWireFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzWireCodec from wireFuzzSeedInputs. It only runs when
// WRITE_FUZZ_CORPUS is set:
//
//	WRITE_FUZZ_CORPUS=1 go test -run TestWriteWireFuzzCorpus ./internal/proto/
func TestWriteWireFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range wireFuzzSeedInputs() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireFuzzCorpusPresent is the CI corpus-regression guard: the fuzz
// smoke in `make check` seeds from testdata/fuzz/FuzzWireCodec, so deleting
// or emptying the corpus must fail the build, not silently weaken fuzzing.
func TestWireFuzzCorpusPresent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireCodec")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("wire fuzz corpus missing: %v", err)
	}
	if want := len(wireFuzzSeedInputs()); len(entries) < want {
		t.Fatalf("wire fuzz corpus regressed: %d files on disk, %d seeds expected "+
			"(regenerate with WRITE_FUZZ_CORPUS=1 go test -run TestWriteWireFuzzCorpus ./internal/proto/)",
			len(entries), want)
	}
}
