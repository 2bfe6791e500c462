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

// fzReader derives structured message fields deterministically from fuzz
// input bytes; past the end it yields zeros, so every input is valid.
type fzReader struct {
	d []byte
	i int
}

func (z *fzReader) byte() byte {
	if z.i >= len(z.d) {
		return 0
	}
	b := z.d[z.i]
	z.i++
	return b
}

func (z *fzReader) u64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(z.byte())
	}
	return v
}

func (z *fzReader) str() string {
	n := int(z.byte() % 9)
	b := make([]byte, n)
	for k := range b {
		b[k] = z.byte()
	}
	return string(b)
}

// fuzzBatchReadReq builds a BatchReadReq from fuzz bytes.
func fuzzBatchReadReq(z *fzReader) BatchReadReq {
	req := BatchReadReq{
		Txn:   TxnID(z.u64()),
		Write: z.byte()&1 == 1,
		Depth: int(int8(z.byte())),
		Rqv:   z.byte()&1 == 1,
		From:  int(z.byte()),
		TC:    TraceContext{Trace: z.u64(), Span: z.u64(), Parent: z.u64()},
	}
	for n := int(z.byte() % 6); n > 0; n-- {
		req.Objs = append(req.Objs, ObjectID(z.str()))
	}
	for n := int(z.byte() % 6); n > 0; n-- {
		req.Delta = append(req.Delta, DataItem{
			ID:         ObjectID(z.str()),
			Version:    Version(z.u64()),
			OwnerDepth: int(int8(z.byte())),
			OwnerChk:   int(int8(z.byte())),
		})
	}
	return req
}

// fuzzBatchReadRep builds a BatchReadRep from fuzz bytes. Copies carry a mix
// of nil, stock and registered application payloads, the shapes replicas
// ship; Prefetch carries the linked application copies a batched read ships
// along.
func fuzzBatchReadRep(z *fzReader) BatchReadRep {
	rep := BatchReadRep{
		OK:         z.byte()&1 == 1,
		AbortDepth: int(int8(z.byte())),
		AbortChk:   int(int8(z.byte())),
		LockOnly:   z.byte()&1 == 1,
		NeedFull:   z.byte()&1 == 1,
	}
	for n := int(z.byte() % 6); n > 0; n-- {
		c := ObjectCopy{ID: ObjectID(z.str()), Version: Version(z.u64())}
		switch z.byte() % 5 {
		case 0: // nil Val: version-0 "never written" copies travel like this
		case 1:
			c.Val = Int64(int64(z.u64()))
		case 2:
			c.Val = String(z.str())
		case 3:
			c.Val = Int64Slice{int64(z.u64()), int64(z.u64())}
		case 4:
			c.Val = customWireValue{A: int64(z.u64()), B: z.str()}
		}
		rep.Copies = append(rep.Copies, c)
	}
	for n := int(z.byte() % 4); n > 0; n-- {
		rep.Prefetch = append(rep.Prefetch, ObjectCopy{ID: ObjectID(z.str()), Version: Version(z.u64()),
			Val: customWireValue{A: int64(z.u64()), B: z.str()}})
	}
	return rep
}

// normalizeBatchReq maps gob's nil/empty-slice ambiguity away before
// comparing: gob omits zero-length slices entirely, so they decode as nil.
func normalizeBatchReq(r BatchReadReq) BatchReadReq {
	if len(r.Objs) == 0 {
		r.Objs = nil
	}
	if len(r.Delta) == 0 {
		r.Delta = nil
	}
	return r
}

func normalizeBatchRep(r BatchReadRep) BatchReadRep {
	if len(r.Copies) == 0 {
		r.Copies = nil
	}
	if len(r.Prefetch) == 0 {
		r.Prefetch = nil
	}
	return r
}

// FuzzBatchReadWire exercises the batched-read messages two ways: arbitrary
// bytes fed to the gob decoder must fail cleanly (never panic), and
// structured messages derived from the same bytes must survive a gob round
// trip and a binary-codec round trip unchanged.
func FuzzBatchReadWire(f *testing.F) {
	for _, seed := range fuzzSeedInputs() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Robustness: the decoder sees attacker-shaped bytes; errors are
		// expected, panics are bugs. Decode both directly and through the
		// interface path the TCP frame reader uses.
		var req BatchReadReq
		_ = gob.NewDecoder(bytes.NewReader(data)).Decode(&req)
		var rep BatchReadRep
		_ = gob.NewDecoder(bytes.NewReader(data)).Decode(&rep)
		var iface any
		_ = gob.NewDecoder(bytes.NewReader(data)).Decode(&iface)

		// Round trip: derived request and reply come back bit-identical
		// (modulo gob's nil/empty slice normalization).
		z := &fzReader{d: data}
		in := fuzzBatchReadReq(z)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(in); err != nil {
			t.Fatalf("encode BatchReadReq: %v", err)
		}
		var out BatchReadReq
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("decode BatchReadReq: %v", err)
		}
		if a, b := normalizeBatchReq(in), normalizeBatchReq(out); !reflect.DeepEqual(a, b) {
			t.Fatalf("BatchReadReq round trip:\n in: %+v\nout: %+v", a, b)
		}
		if a, b := normalizeBatchReq(in), normalizeBatchReq(wireRoundTrip(t, in).(BatchReadReq)); !reflect.DeepEqual(a, b) {
			t.Fatalf("BatchReadReq wire round trip:\n in: %+v\nout: %+v", a, b)
		}

		repIn := fuzzBatchReadRep(z)
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(repIn); err != nil {
			t.Fatalf("encode BatchReadRep: %v", err)
		}
		var repOut BatchReadRep
		if err := gob.NewDecoder(&buf).Decode(&repOut); err != nil {
			t.Fatalf("decode BatchReadRep: %v", err)
		}
		if a, b := normalizeBatchRep(repIn), normalizeBatchRep(repOut); !reflect.DeepEqual(a, b) {
			t.Fatalf("BatchReadRep round trip:\n in: %+v\nout: %+v", a, b)
		}
		if a, b := normalizeBatchRep(repIn), normalizeBatchRep(wireRoundTrip(t, repIn).(BatchReadRep)); !reflect.DeepEqual(a, b) {
			t.Fatalf("BatchReadRep wire round trip:\n in: %+v\nout: %+v", a, b)
		}
	})
}

// fuzzSeedInputs returns the in-code seed corpus: real gob encodings of
// representative messages (so the raw-decode path starts from valid frames)
// plus byte patterns that drive the structured derivation through its
// branches. TestWriteFuzzCorpus mirrors these into testdata/fuzz.
func fuzzSeedInputs() [][]byte {
	enc := func(msg any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	return [][]byte{
		{},
		[]byte("qrdtm"),
		enc(BatchReadReq{
			Txn: 7, Objs: []ObjectID{"bucket3/k1", "bucket3/k2"}, Depth: 1,
			Rqv: true, From: 2,
			Delta: []DataItem{{ID: "x", Version: 4, OwnerDepth: 1, OwnerChk: NoChk}},
			TC:    TraceContext{Trace: 1, Span: 2, Parent: 3},
		}),
		enc(BatchReadRep{
			OK: true, AbortDepth: NoDepth, AbortChk: NoChk,
			Copies: []ObjectCopy{
				{ID: "x", Version: 4, Val: Int64(42)},
				{ID: "fresh"}, // version-0, nil-value copy for an unknown id
			},
		}),
		enc(BatchReadRep{
			OK: true, AbortDepth: NoDepth, AbortChk: NoChk,
			Copies:   []ObjectCopy{{ID: "hm/h3", Version: 2, Val: customWireValue{A: 1, B: "hm/n4"}}},
			Prefetch: []ObjectCopy{{ID: "hm/n4", Version: 1, Val: customWireValue{A: 4, B: "hm/n9"}}},
		}),
		enc(BatchReadRep{NeedFull: true, AbortDepth: NoDepth, AbortChk: NoChk}),
		enc(BatchReadRep{AbortDepth: 2, AbortChk: 1, LockOnly: true}),
		bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 40),
	}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzBatchReadWire from fuzzSeedInputs. It only runs when
// WRITE_FUZZ_CORPUS is set:
//
//	WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/proto/
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBatchReadWire")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeedInputs() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
