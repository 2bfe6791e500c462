package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"

	"qrdtm/internal/proto"
)

// chainNode has the shape of the hashmap benchmark's chain node: a key and
// the id of the next node.
type chainNode struct {
	Key  int64
	Next proto.ObjectID
}

func (n chainNode) CloneValue() proto.Value { return n }

func (n chainNode) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, n.Key)
	b = binary.AppendUvarint(b, uint64(len(n.Next)))
	return append(b, n.Next...), nil
}

func decodeChainNode(b []byte) (proto.Value, error) {
	key, n := binary.Varint(b)
	if n <= 0 {
		return nil, errors.New("bad key")
	}
	l, m := binary.Uvarint(b[n:])
	if m <= 0 || l != uint64(len(b)-n-m) {
		return nil, errors.New("bad next")
	}
	return chainNode{Key: key, Next: proto.ObjectID(b[n+m:])}, nil
}

func init() { proto.RegisterValue(0xf1, chainNode{}, decodeChainNode) }

// chainPrepare is a prepare record whose write carries an application value.
var chainPrepare = proto.PrepareReq{Txn: 11, Owner: 11,
	Reads:  []proto.DataItem{{ID: "hm/b3", Version: 2, OwnerChk: proto.NoChk}},
	Writes: []proto.ObjectCopy{{ID: "hm/n4211", Version: 5, Val: chainNode{Key: 77, Next: "hm/n9"}}}}

// TestAppValueRecordSurvivesReopen: a prepare carrying a registered
// application value is logged as its wire-codec encoding and comes back
// unchanged after close and reopen.
func TestAppValueRecordSurvivesReopen(t *testing.T) {
	frame, err := appendFrame(nil, 1, KindPrepare, chainPrepare)
	if err != nil {
		t.Fatal(err)
	}
	if wire, _ := proto.EncodeWire(nil, chainPrepare); !bytes.Equal(frame[frameHeaderSize+bodyPrefixSize:], wire) {
		t.Fatalf("prepare payload %x is not its wire encoding %x", frame[frameHeaderSize+bodyPrefixSize:], wire)
	}

	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	if err := w.Append(KindPrepare, chainPrepare); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, res := openT(t, dir, Options{})
	defer w2.Close()
	if res.Torn || len(res.Records) != 1 {
		t.Fatalf("replayed %d records (torn=%v), want 1 clean", len(res.Records), res.Torn)
	}
	if got := res.Records[0].Msg; !reflect.DeepEqual(got, chainPrepare) {
		t.Fatalf("prepare changed across reopen:\n got:  %+v\n want: %+v", got, chainPrepare)
	}
}

// unloggedValue is never registered.
type unloggedValue struct{ N int64 }

func (v unloggedValue) CloneValue() proto.Value { return v }

// TestUnregisteredValueNotLogged: a hot record holding an unregistered value
// fails its Append, naming the type, and takes no index.
func TestUnregisteredValueNotLogged(t *testing.T) {
	w, _ := openT(t, t.TempDir(), Options{})
	defer w.Close()
	err := w.Append(KindDecide, proto.DecideReq{Txn: 1, Commit: true,
		Writes: []proto.ObjectCopy{{ID: "x", Version: 2, Val: unloggedValue{N: 1}}}})
	if !errors.Is(err, proto.ErrUnregisteredValue) || !strings.Contains(err.Error(), "unloggedValue") {
		t.Fatalf("Append error = %v, want ErrUnregisteredValue naming the type", err)
	}
	if got := w.LastIndex(); got != 0 {
		t.Fatalf("LastIndex = %d after a refused append, want 0", got)
	}
}

// TestUndecodableRecordRefusesReopen: a record whose CRC checks out but whose
// payload this build cannot decode (as a record holding an application value
// written by an older build) is no torn tail: Open fails and truncates
// nothing, instead of silently dropping it and everything after it.
func TestUndecodableRecordRefusesReopen(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	if err := w.Append(KindPrepare, chainPrepare); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	body := binary.LittleEndian.AppendUint64(nil, 2)
	body = append(body, byte(KindDecide), 0xff) // 0xff: no such message
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, crcTable))
	frame = append(frame, body...)

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(segs[0].path)

	if _, _, err := Open(Options{Dir: dir}); !errors.Is(err, errUndecodable) {
		t.Fatalf("Open error = %v, want errUndecodable", err)
	}
	if after, _ := os.Stat(segs[0].path); after.Size() != before.Size() {
		t.Fatalf("segment truncated from %d to %d bytes", before.Size(), after.Size())
	}
}
