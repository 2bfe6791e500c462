package proto

// This file provides ready-made Value implementations for common payloads.
// Benchmarks and examples define richer structs; these cover the scalar and
// slice cases so that simple uses of the DTM need no boilerplate. The binary
// codec encodes them without registration (codec.go).

// Int64 is a scalar integer payload (account balances, counters).
type Int64 int64

// CloneValue implements Value. Scalars are immutable, so the receiver is its
// own deep copy.
func (v Int64) CloneValue() Value { return v }

// Float64 is a scalar floating-point payload.
type Float64 float64

// CloneValue implements Value.
func (v Float64) CloneValue() Value { return v }

// String is a scalar string payload.
type String string

// CloneValue implements Value.
func (v String) CloneValue() Value { return v }

// Bool is a scalar boolean payload.
type Bool bool

// CloneValue implements Value.
func (v Bool) CloneValue() Value { return v }

// Bytes is a raw byte-slice payload.
type Bytes []byte

// CloneValue implements Value by copying the backing array.
func (v Bytes) CloneValue() Value {
	out := make(Bytes, len(v))
	copy(out, v)
	return out
}

// Int64Slice is an integer-slice payload (sorted bucket contents etc.).
type Int64Slice []int64

// CloneValue implements Value by copying the backing array.
func (v Int64Slice) CloneValue() Value {
	out := make(Int64Slice, len(v))
	copy(out, v)
	return out
}

// IDSlice is a payload holding references to other objects (linked
// structures such as skiplist forward pointers).
type IDSlice []ObjectID

// CloneValue implements Value by copying the backing array.
func (v IDSlice) CloneValue() Value {
	out := make(IDSlice, len(v))
	copy(out, v)
	return out
}
