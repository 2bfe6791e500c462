// One encoding per value: an application value crosses every message, log
// record and snapshot as the bytes of its own AppendBinary and comes back
// unchanged, and data in an older wire or disk format is refused instead of
// misread.
package qrdtm_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/proto"
	"qrdtm/internal/store"
	"qrdtm/internal/testcluster"
	"qrdtm/internal/wal"
)

// probeVal has an unexported field that its AppendBinary writes. An encoder
// that sees only exported fields would bring it back as 0.
type probeVal struct {
	Pub  int64
	priv int64
}

func (v probeVal) CloneValue() proto.Value { return v }

func (v probeVal) AppendBinary(b []byte) ([]byte, error) {
	return binary.AppendVarint(binary.AppendVarint(b, v.Pub), v.priv), nil
}

func decodeProbeVal(b []byte) (proto.Value, error) {
	pub, n := binary.Varint(b)
	if n <= 0 {
		return nil, errors.New("probeVal: bad Pub")
	}
	priv, m := binary.Varint(b[n:])
	if m <= 0 || n+m != len(b) {
		return nil, errors.New("probeVal: bad priv")
	}
	return probeVal{Pub: pub, priv: priv}, nil
}

func init() { proto.RegisterValue(0xe0, probeVal{}, decodeProbeVal) }

// TestValueEncodingFidelity sends a probeVal through each cold message over
// TCP, through an install record across a crash and restart, and through a
// snapshot, and requires it back with its unexported field intact.
func TestValueEncodingFidelity(t *testing.T) {
	want := probeVal{Pub: 1, priv: 2}
	probe := func(v proto.Version) []proto.ObjectCopy {
		return []proto.ObjectCopy{{ID: "probe", Version: v, Val: want}}
	}
	check := func(what string, copies []proto.ObjectCopy) {
		t.Helper()
		if len(copies) != 1 || copies[0].Val != proto.Value(want) {
			t.Errorf("%s: copies = %+v, want one holding %+v", what, copies, want)
		}
	}

	c, err := testcluster.Start(testcluster.Options{Nodes: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	call := func(req any) any {
		t.Helper()
		resp, err := c.Transport.Call(context.Background(), 0, 0, req)
		if err != nil {
			t.Fatalf("%T: %v", req, err)
		}
		return resp
	}
	dump := func() []proto.ObjectCopy {
		rep := call(proto.DumpReq{Obj: "probe"}).(proto.DumpRep)
		return []proto.ObjectCopy{rep.Copy}
	}

	c.Load(probe(1)) // in process: the value enters the replica as it is
	check("SlotDumpRep", call(proto.SlotDumpReq{Slots: []int{proto.SlotOf("probe")}}).(proto.SlotDumpRep).Copies)
	if recs := call(proto.LogTailReq{}).(proto.LogTailRep).Records; len(recs) != 1 {
		t.Errorf("LogTailRep: %d records, want the load", len(recs))
	} else {
		check("LogTailRep", recs[0].Copies)
	}

	if rep := call(proto.InstallReq{Copies: probe(2)}).(proto.InstallRep); rep.Installed != 1 {
		t.Fatalf("InstallReq installed %d copies, want 1", rep.Installed)
	}
	check("InstallReq", dump())
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	check("InstallReq WAL record", dump())

	dir := t.TempDir()
	w, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSnapshotSource(func() (wal.SnapshotState, error) {
		return wal.SnapshotState{Objects: []store.Entry{{Copy: probe(3)[0]}}}, nil
	})
	if err := w.Append(wal.KindCursor, wal.Cursor{Peer: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, res, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if res.Snapshot == nil || len(res.Snapshot.Objects) != 1 {
		t.Fatalf("restored snapshot = %+v, want one object", res.Snapshot)
	}
	check("snapshot", []proto.ObjectCopy{res.Snapshot.Objects[0].Copy})
}

// v1Payload is a message as version 1 framed it on the wire and in log
// records: an encoding byte (0, the binary codec) in front of its encoding.
func v1Payload(t *testing.T, msg any) []byte {
	t.Helper()
	b, err := proto.EncodeWire([]byte{0}, msg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOlderFormatsRefused: a version 1 wire opener, log segment and snapshot
// each meet a clear refusal, and none of them is parsed.
func TestOlderFormatsRefused(t *testing.T) {
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }
	// A v1 log frame: u32 len | u32 crc | u64 index | kind | enc | payload.
	body := append(binary.LittleEndian.AppendUint64(nil, 1), byte(wal.KindLoad))
	body = append(body, v1Payload(t, proto.LoadReq{Objects: []proto.ObjectCopy{{ID: "x", Version: 1, Val: proto.Int64(7)}}})...)
	logFrame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	logFrame = append(binary.LittleEndian.AppendUint32(logFrame, crc(body)), body...)

	// Each case returns the refusal its reader got, which must contain want.
	cases := []struct {
		name    string
		want    string
		refused func(t *testing.T) error
	}{
		{"wire v1 opener", "", func(t *testing.T) error {
			var handled atomic.Int64
			srv, err := cluster.ListenTCP(1, "127.0.0.1:0", func(proto.NodeID, any) any {
				handled.Add(1)
				return proto.DumpRep{}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// Magic v1, then one request frame: u32 len | u64 id | kind 1 |
			// varint from | enc | DumpReq.
			req := append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0}, v1Payload(t, proto.DumpReq{Obj: "x"})...)
			out := append([]byte{0x80, 'Q', 'W', 0x01}, binary.BigEndian.AppendUint32(nil, uint32(len(req)))...)
			if _, err := conn.Write(append(out, req...)); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := conn.Read(make([]byte, 1))
			if n != 0 || handled.Load() != 0 {
				t.Fatalf("a v1 peer was served: %d reply bytes, %d handled", n, handled.Load())
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("the server kept a v1 connection open")
			}
			return err
		}},
		{"QWAL v1 segment", "bad magic", func(t *testing.T) error {
			dir := t.TempDir()
			seg := append([]byte("QWAL\x01"), logFrame...)
			if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := wal.Open(wal.Options{Dir: dir})
			return err
		}},
		{"QSNP v1 snapshot", "bad magic", func(t *testing.T) error {
			dir := t.TempDir()
			snap := append([]byte("QSNP\x01"), logFrame...)
			if err := os.WriteFile(filepath.Join(dir, "state.snap"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := wal.Open(wal.Options{Dir: dir})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.refused(t); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
