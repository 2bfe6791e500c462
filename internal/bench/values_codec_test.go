package bench

import (
	"math"
	"reflect"
	"testing"

	"qrdtm/internal/proto"
)

// TestValueDecodersAreStrict: each bench decoder rebuilds exactly what the
// type's AppendBinary wrote, and rejects every strict prefix of it, a
// trailing byte, and a hostile id length.
func TestValueDecodersAreStrict(t *testing.T) {
	for _, c := range []struct {
		v      proto.BinaryValue
		decode proto.ValueDecoder
	}{
		{ChainNode{Key: -7, Next: "hm/n9"}, decodeChainNode},
		{ChainNode{Key: 0, Next: ""}, decodeChainNode},
		{ChainHead{First: "hm/n3"}, decodeChainHead},
		{ChainHead{}, decodeChainHead},
		{RBNode{Key: 1 << 40, Red: true, L: "rb/1", P: "rb/0"}, decodeRBNode},
		{BSTNode{Key: 3, L: "bst/1", R: "bst/2"}, decodeBSTNode},
		{SkipNode{Key: math.MinInt64, Forward: proto.IDSlice{"sl/1", "", "sl/9"}}, decodeSkipNode},
		{SkipNode{Key: 5}, decodeSkipNode},
		{ReservationItem{Price: 120, Total: 5, Used: 2}, decodeReservationItem},
		{CustomerRecord{Count: 3, Spent: math.MaxInt64}, decodeCustomerRecord},
	} {
		b, err := c.v.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%T.AppendBinary: %v", c.v, err)
		}
		got, err := c.decode(b)
		if err != nil || !reflect.DeepEqual(got, c.v) {
			t.Fatalf("%T round trip: got %+v, %v; want %+v", c.v, got, err, c.v)
		}
		for cut := 0; cut < len(b); cut++ {
			if v, err := c.decode(b[:cut]); err == nil {
				t.Fatalf("%T: prefix %d/%d decoded to %+v", c.v, cut, len(b), v)
			}
		}
		if _, err := c.decode(append(b, 0)); err == nil {
			t.Fatalf("%T: trailing byte accepted", c.v)
		}
	}
	hostile := []byte{2, 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'} // key 1, id length 4 Gi
	for _, decode := range []proto.ValueDecoder{decodeChainNode, decodeSkipNode, decodeChainHead} {
		if _, err := decode(hostile); err == nil {
			t.Fatal("hostile length accepted")
		}
	}
	if _, err := decodeRBNode([]byte{2, 7, 0, 0, 0}); err == nil {
		t.Fatal("RBNode colour byte 7 accepted")
	}
}
