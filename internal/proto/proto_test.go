package proto

import (
	"bytes"
	"encoding/gob"
	"testing"
	"testing/quick"
)

func TestObjectCopyCloneIsDeep(t *testing.T) {
	orig := ObjectCopy{ID: "x", Version: 3, Val: Int64Slice{1, 2, 3}}
	cl := orig.Clone()
	cl.Val.(Int64Slice)[0] = 99
	if orig.Val.(Int64Slice)[0] != 1 {
		t.Fatal("Clone aliased the slice")
	}
	nilVal := ObjectCopy{ID: "y"}
	if got := nilVal.Clone(); got.Val != nil {
		t.Fatalf("clone of nil value = %v", got.Val)
	}
}

func TestScalarValuesCloneThemselves(t *testing.T) {
	for _, v := range []Value{Int64(4), Float64(2.5), String("s"), Bool(true)} {
		if got := v.CloneValue(); got != v {
			t.Fatalf("scalar clone changed value: %v -> %v", v, got)
		}
	}
}

func TestSliceValuesCloneDeep(t *testing.T) {
	b := Bytes{1, 2}
	bc := b.CloneValue().(Bytes)
	bc[0] = 9
	if b[0] != 1 {
		t.Fatal("Bytes clone aliased")
	}
	ids := IDSlice{"a", "b"}
	ic := ids.CloneValue().(IDSlice)
	ic[0] = "z"
	if ids[0] != "a" {
		t.Fatal("IDSlice clone aliased")
	}
	is := Int64Slice{5}
	isc := is.CloneValue().(Int64Slice)
	isc[0] = 7
	if is[0] != 5 {
		t.Fatal("Int64Slice clone aliased")
	}
}

func gobRoundTrip(t *testing.T, in any, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestMessagesGobRoundTrip(t *testing.T) {
	req := ReadReq{
		Txn: 7, Obj: "o1", Write: true, Depth: 2,
		DataSet: []DataItem{{ID: "a", Version: 4, OwnerDepth: 1, OwnerChk: 3}},
	}
	var gotReq ReadReq
	gobRoundTrip(t, req, &gotReq)
	if gotReq.Txn != 7 || gotReq.DataSet[0].OwnerChk != 3 || !gotReq.Write {
		t.Fatalf("ReadReq round trip: %+v", gotReq)
	}

	rep := ReadRep{OK: true, Copy: ObjectCopy{ID: "a", Version: 9, Val: Int64(42)}, AbortDepth: NoDepth, AbortChk: NoChk}
	var gotRep ReadRep
	gobRoundTrip(t, rep, &gotRep)
	if gotRep.Copy.Val.(Int64) != 42 || gotRep.AbortChk != NoChk {
		t.Fatalf("ReadRep round trip: %+v", gotRep)
	}

	prep := PrepareReq{Txn: 3, Writes: []ObjectCopy{{ID: "w", Version: 1, Val: String("v")}}}
	var gotPrep PrepareReq
	gobRoundTrip(t, prep, &gotPrep)
	if gotPrep.Writes[0].Val.(String) != "v" {
		t.Fatalf("PrepareReq round trip: %+v", gotPrep)
	}
}

func TestValuePayloadsGobRoundTripAsInterface(t *testing.T) {
	// The codec tests' gob oracle carries values in interface fields; its
	// registration must cover every built-in payload.
	for _, v := range []Value{
		Int64(1), Float64(2), String("x"), Bool(true),
		Bytes{1}, Int64Slice{2}, IDSlice{"id"},
	} {
		in := ObjectCopy{ID: "o", Version: 1, Val: v}
		var out ObjectCopy
		gobRoundTrip(t, in, &out)
		if out.Val == nil {
			t.Fatalf("%T: lost value", v)
		}
	}
}

func TestStringers(t *testing.T) {
	if NodeID(3).String() != "n3" {
		t.Fatal("NodeID stringer")
	}
	if TxnID(9).String() != "t9" {
		t.Fatal("TxnID stringer")
	}
	if ObjectID("abc").String() != "abc" {
		t.Fatal("ObjectID stringer")
	}
}

func TestDataItemGobProperty(t *testing.T) {
	prop := func(id string, v uint64, depth, chk int16) bool {
		in := DataItem{ID: ObjectID(id), Version: Version(v), OwnerDepth: int(depth), OwnerChk: int(chk)}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(in); err != nil {
			return false
		}
		var out DataItem
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
