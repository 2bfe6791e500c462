package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"qrdtm/internal/proto"
)

// fz is a tiny deterministic byte reader for deriving structured records
// from fuzz input (the same idiom as the proto package's fzReader).
type fz struct {
	d []byte
	i int
}

func (z *fz) byte() byte {
	if z.i >= len(z.d) {
		return 0
	}
	b := z.d[z.i]
	z.i++
	return b
}

func (z *fz) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(z.byte())
	}
	return v
}

func (z *fz) str() string {
	n := int(z.byte() % 12)
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, 'a'+z.byte()%26)
	}
	return string(out)
}

// fuzzRecord derives one structurally valid record of any kind.
func fuzzRecord(z *fz) (Kind, any) {
	copies := func(max byte) []proto.ObjectCopy {
		var out []proto.ObjectCopy
		for n := int(z.byte() % max); n > 0; n-- {
			c := proto.ObjectCopy{ID: proto.ObjectID(z.str()), Version: proto.Version(z.u64())}
			switch z.byte() % 3 {
			case 1:
				c.Val = proto.Int64(int64(z.u64()))
			case 2:
				c.Val = chainNode{Key: int64(z.u64()), Next: proto.ObjectID(z.str())}
			}
			out = append(out, c)
		}
		return out
	}
	switch z.byte() % 6 {
	case 0:
		req := proto.PrepareReq{Txn: proto.TxnID(z.u64()), Owner: proto.TxnID(z.u64()), Writes: copies(4)}
		for n := int(z.byte() % 4); n > 0; n-- {
			req.Reads = append(req.Reads, proto.DataItem{
				ID: proto.ObjectID(z.str()), Version: proto.Version(z.u64()),
				OwnerDepth: int(int8(z.byte())), OwnerChk: int(int8(z.byte())),
			})
		}
		for n := int(z.byte() % 3); n > 0; n-- {
			req.AbsLocks = append(req.AbsLocks, z.str())
		}
		return KindPrepare, req
	case 1:
		return KindDecide, proto.DecideReq{Txn: proto.TxnID(z.u64()), Commit: z.byte()&1 == 1, Writes: copies(4)}
	case 2:
		return KindLoad, proto.LoadReq{Objects: copies(4)}
	case 3:
		return KindInstall, proto.InstallReq{Copies: copies(4)}
	case 4:
		m := proto.PartitionMap([]proto.NodeID{0, 1, 2, 3, 4, 5}, int(z.byte()%3)+1)
		m.Epoch = z.u64() % 1000
		return KindMap, proto.MapUpdateReq{Map: m}
	default:
		return KindCursor, Cursor{Peer: proto.NodeID(int64(z.u64())), Index: z.u64()}
	}
}

// reencodeChecks re-encodes a decoded record and verifies the round trip:
// every payload (the wire codec's, or a hand-encoded cursor's) is canonical,
// so the frame must come back byte-identical.
func reencodeChecks(t *testing.T, frame []byte, rec Record) {
	t.Helper()
	re, err := appendFrame(nil, rec.Index, rec.Kind, rec.Msg)
	if err != nil {
		t.Fatalf("re-encoding a decoded record failed: %v", err)
	}
	if !bytes.Equal(re, frame) {
		t.Fatalf("decode→encode not canonical for %v:\n in: %x\nout: %x", rec.Kind, frame, re)
	}
}

// FuzzWALRecord exercises the log record codec from both directions:
// arbitrary bytes must never panic the frame decoder (corruption is an
// error, not a crash), and any frame that does decode must survive a
// byte-identical re-encode (see reencodeChecks), which is also the
// guarantee for structured records derived from the same input.
func FuzzWALRecord(f *testing.F) {
	for _, seed := range walFuzzSeedInputs() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoder robustness on raw bytes.
		if rec, n, err := decodeFrame(data); err == nil {
			reencodeChecks(t, data[:n], rec)
		}

		// Structured round trip: a valid record survives encode→decode(→encode)
		// and decode agrees on index and kind.
		z := &fz{d: data}
		index := z.u64()%1_000_000 + 1
		kind, msg := fuzzRecord(z)
		frame, err := appendFrame(nil, index, kind, msg)
		if err != nil {
			t.Fatalf("appendFrame(%v): %v", kind, err)
		}
		rec, n, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("decodeFrame of own encoding: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(frame))
		}
		if rec.Index != index || rec.Kind != kind {
			t.Fatalf("round trip: got (%d,%v), want (%d,%v)", rec.Index, rec.Kind, index, kind)
		}
		reencodeChecks(t, frame, rec)

		// A flipped byte anywhere in the frame must be rejected (or, for
		// flips confined to the length prefix that still parse, re-framed
		// consistently — but never accepted with the original CRC).
		if len(frame) > 0 {
			pos := int(z.u64() % uint64(len(frame)))
			frame[pos] ^= 0x20
			if _, _, err := decodeFrame(frame); err == nil {
				t.Fatalf("decodeFrame accepted a corrupted frame (flip at %d)", pos)
			}
		}
	})
}

// walFuzzSeedInputs is the in-code seed corpus for FuzzWALRecord: encoded
// frames of every record kind plus branch-driving byte patterns.
// TestWriteWALFuzzCorpus mirrors these into testdata/fuzz.
func walFuzzSeedInputs() [][]byte {
	enc := func(index uint64, kind Kind, msg any) []byte {
		frame, err := appendFrame(nil, index, kind, msg)
		if err != nil {
			panic(err)
		}
		return frame
	}
	return [][]byte{
		{},
		[]byte("wal"),
		enc(1, KindLoad, proto.LoadReq{Objects: []proto.ObjectCopy{{ID: "acct/a", Version: 1, Val: proto.Int64(100)}}}),
		enc(2, KindPrepare, proto.PrepareReq{Txn: 9, Reads: []proto.DataItem{{ID: "r", Version: 2, OwnerChk: proto.NoChk}}, Writes: []proto.ObjectCopy{{ID: "w", Version: 3, Val: proto.Int64(-1)}}, AbsLocks: []string{"L"}, Owner: 9}),
		enc(3, KindDecide, proto.DecideReq{Txn: 9, Commit: true, Writes: []proto.ObjectCopy{{ID: "w", Version: 4, Val: proto.Int64(7)}}}),
		enc(4, KindInstall, proto.InstallReq{Copies: []proto.ObjectCopy{{ID: "acct/x", Version: 7, Val: proto.Int64(93)}}}),
		enc(5, KindMap, proto.MapUpdateReq{Map: proto.PartitionMap([]proto.NodeID{0, 1, 2, 3}, 2)}),
		enc(6, KindCursor, Cursor{Peer: 3, Index: 42}),
		enc(7, KindPrepare, chainPrepare),
		binary.LittleEndian.AppendUint32(nil, 10), // plausible length, garbage rest
		bytes.Repeat([]byte{0x5a, 0xff, 0x00}, 30),
	}
}

// TestWriteWALFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzWALRecord from walFuzzSeedInputs. It only runs when
// WRITE_FUZZ_CORPUS is set:
//
//	WRITE_FUZZ_CORPUS=1 go test -run TestWriteWALFuzzCorpus ./internal/wal/
func TestWriteWALFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALRecord")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range walFuzzSeedInputs() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALFuzzCorpusPresent guards the checked-in corpus: the fuzz smoke in
// `make check` seeds from testdata/fuzz/FuzzWALRecord, so deleting or
// emptying it must fail the build.
func TestWALFuzzCorpusPresent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWALRecord")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("wal fuzz corpus missing: %v", err)
	}
	if want := len(walFuzzSeedInputs()); len(entries) < want {
		t.Fatalf("wal fuzz corpus regressed: %d files on disk, %d seeds expected "+
			"(regenerate with WRITE_FUZZ_CORPUS=1 go test -run TestWriteWALFuzzCorpus ./internal/wal/)",
			len(entries), want)
	}
}
