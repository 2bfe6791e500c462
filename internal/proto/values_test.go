package proto

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// plainValue is a Value without AppendBinary.
type plainValue struct{ N int64 }

func (v plainValue) CloneValue() Value { return v }

// unregisteredValue can encode itself but is never registered.
type unregisteredValue struct{ N int64 }

func (v unregisteredValue) CloneValue() Value                     { return v }
func (v unregisteredValue) AppendBinary(b []byte) ([]byte, error) { return append(b, 1), nil }

// spareValue is registered by no init, so a test can try to register it.
type spareValue struct{}

func (v spareValue) CloneValue() Value                     { return v }
func (v spareValue) AppendBinary(b []byte) ([]byte, error) { return b, nil }

func decodeNothing([]byte) (Value, error) { return nil, errors.New("never decoded") }

// TestRegisterValuePanics pins every refusal of RegisterValue, each with a
// message naming what is wrong.
func TestRegisterValuePanics(t *testing.T) {
	cases := []struct {
		name   string
		tag    byte
		v      Value
		decode ValueDecoder
		want   string
	}{
		{"nil value", 0xe0, nil, decodeNothing, "nil value"},
		{"nil decoder", 0xe0, spareValue{}, nil, "nil decoder"},
		{"stock kind", 0xe0, Int64(0), decodeNothing, "stock kinds"},
		{"stock slice kind", 0xe0, IDSlice(nil), decodeNothing, "stock kinds"},
		{"missing method", 0xe0, plainValue{}, decodeNothing, "missing method AppendBinary"},
		{"duplicate tag", customWireTag, spareValue{}, decodeNothing, "already taken"},
		{"duplicate type", 0xe0, customWireValue{}, decodeCustomWireValue, "already registered"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("RegisterValue did not panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, c.want) {
					t.Fatalf("panic %q does not mention %q", r, c.want)
				}
			}()
			RegisterValue(c.tag, c.v, c.decode)
		})
	}
	// None of the refusals may have claimed the tag they tried.
	if d := valueReg.Load().decoder(0xe0); d != nil {
		t.Fatal("a refused registration still claimed its tag")
	}
}

// TestUnregisteredValueRefused: a covered message carrying an unregistered
// application type is refused with an error naming the type, and buf comes
// back unchanged.
func TestUnregisteredValueRefused(t *testing.T) {
	msg := PrepareReq{Txn: 1, Writes: []ObjectCopy{
		{ID: "a", Version: 1, Val: Int64(1)},
		{ID: "b", Version: 1, Val: unregisteredValue{N: 2}},
	}}
	prefix := []byte{0xaa, 0xbb}
	out, err := EncodeWire(prefix, msg)
	if !errors.Is(err, ErrUnregisteredValue) {
		t.Fatalf("EncodeWire error = %v, want ErrUnregisteredValue", err)
	}
	if !strings.Contains(err.Error(), "unregisteredValue") {
		t.Fatalf("error %q does not name the type", err)
	}
	if !reflect.DeepEqual(out, prefix) {
		t.Fatalf("buf changed on refusal: %x", out)
	}
	if _, ok := AppendWire(nil, msg); ok {
		t.Fatal("AppendWire reported success for an unregistered value")
	}
	type unknownMsg struct{}
	if _, err := EncodeWire(nil, unknownMsg{}); err == nil || !strings.Contains(err.Error(), "unknownMsg") {
		t.Fatalf("unknown message: error = %v, want one naming the type", err)
	}
}

// TestAppValueLongPayload covers the in-place widening of the length prefix:
// payloads either side of 128 and 16 384 bytes take one, two and three
// length bytes and must all round-trip.
func TestAppValueLongPayload(t *testing.T) {
	for _, n := range []int{0, 120, 125, 126, 127, 200, 16_380, 70_000} {
		msg := ReadRep{OK: true, Copy: ObjectCopy{ID: "x", Version: 1,
			Val: customWireValue{A: 1, B: strings.Repeat("q", n)}}}
		if got := wireRoundTrip(t, msg); !reflect.DeepEqual(got, msg) {
			t.Fatalf("B of %d bytes: round trip diverged", n)
		}
	}
}

// TestHostileAppValue: an unknown value tag, and a wireValApp length far past
// the input, decode to errors — never a panic, never an allocation sized by
// the hostile length.
func TestHostileAppValue(t *testing.T) {
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{"unknown tag", hostileAppValue(unknownWireTag, 2), "unknown value tag"},
		{"length past input", hostileAppValue(customWireTag, 1<<62), "truncated"},
		{"length overflows int", hostileAppValue(customWireTag, 1<<63+5), "truncated"},
		{"payload the decoder rejects", []byte{wireTagReadRep, 1, 1, 'x', 1, wireValApp, customWireTag, 2, 0, 5}, "value tag 240: bad B"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeWire(c.b)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("DecodeWire error = %v, want one mentioning %q", err, c.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Fatalf("decoding %d hostile bytes allocated %d bytes", len(c.b), grew)
			}
		})
	}
}
