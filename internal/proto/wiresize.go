package proto

// WireSize estimates the encoded size of a protocol message in bytes. The
// in-memory transport uses it for byte accounting (cluster.Stats.Bytes) so
// that simulated runs report the same bytes-per-transaction trends the TCP
// transport measures from real frames. The estimate is a flat-encoding model
// (fixed word per scalar field, string/slice lengths added), not a gob
// byte-for-byte prediction — what matters for the experiments is that it is
// monotone in message content, so footprint deltas and batched fetches show
// up proportionally.
func WireSize(msg any) int {
	switch m := msg.(type) {
	case ReadReq:
		return msgOverhead + wordSize*3 + len(m.Obj) + dataItemsSize(m.DataSet) + tcSize(m.TC)
	case ReadRep:
		return msgOverhead + wordSize*4 + objectCopySize(m.Copy)
	case BatchReadReq:
		n := msgOverhead + wordSize*5 + dataItemsSize(m.Delta) + tcSize(m.TC)
		for _, id := range m.Objs {
			n += wordSize + len(id)
		}
		return n
	case BatchReadRep:
		n := msgOverhead + wordSize*5
		for _, c := range m.Copies {
			n += objectCopySize(c)
		}
		for _, c := range m.Prefetch {
			n += objectCopySize(c)
		}
		return n
	case PrepareReq:
		n := msgOverhead + wordSize*2 + dataItemsSize(m.Reads) + tcSize(m.TC)
		for _, w := range m.Writes {
			n += objectCopySize(w)
		}
		for _, l := range m.AbsLocks {
			n += wordSize + len(l)
		}
		return n
	case PrepareRep:
		return msgOverhead + wordSize
	case DecideReq:
		n := msgOverhead + wordSize*2 + tcSize(m.TC)
		for _, w := range m.Writes {
			n += objectCopySize(w)
		}
		return n
	case DecideRep:
		return msgOverhead
	case ReleaseReq:
		return msgOverhead + wordSize + tcSize(m.TC)
	case ReleaseRep:
		return msgOverhead
	case LoadReq:
		n := msgOverhead
		for _, c := range m.Objects {
			n += objectCopySize(c)
		}
		return n
	case LoadRep:
		return msgOverhead
	case DumpReq:
		return msgOverhead + wordSize + len(m.Obj)
	case DumpRep:
		return msgOverhead + wordSize + objectCopySize(m.Copy)
	case ShardMapReq:
		return msgOverhead
	case ShardMapRep:
		return msgOverhead + shardMapSize(m.Map)
	case MapUpdateReq:
		return msgOverhead + shardMapSize(m.Map)
	case MapUpdateRep:
		return msgOverhead + wordSize
	case SlotDumpReq:
		return msgOverhead + wordSize*len(m.Slots)
	case SlotDumpRep:
		n := msgOverhead + wordSize
		for _, c := range m.Copies {
			n += objectCopySize(c)
		}
		return n
	case InstallReq:
		n := msgOverhead
		for _, c := range m.Copies {
			n += objectCopySize(c)
		}
		return n
	case InstallRep:
		return msgOverhead + wordSize
	default:
		return msgOverhead
	}
}

const (
	// msgOverhead models the per-message envelope (type tag, framing).
	msgOverhead = 16
	// wordSize models one encoded scalar field.
	wordSize = 8
	// valueBaseSize is charged for any non-nil Value payload on top of its
	// content estimate (concrete-type tag).
	valueBaseSize = 8
)

func shardMapSize(m ShardMap) int {
	n := wordSize + 2*wordSize*len(m.Slots)
	for _, s := range m.Shards {
		n += wordSize + wordSize*len(s.Members)
	}
	return n
}

func tcSize(tc TraceContext) int {
	if !tc.Valid() {
		return 0 // gob omits zero-valued fields
	}
	return 3 * wordSize
}

func dataItemsSize(items []DataItem) int {
	n := 0
	for _, it := range items {
		n += 3*wordSize + len(it.ID)
	}
	return n
}

func objectCopySize(c ObjectCopy) int {
	return wordSize + len(c.ID) + valueSize(c.Val)
}

func valueSize(v Value) int {
	switch val := v.(type) {
	case nil:
		return 0
	case Int64, Float64, Bool:
		return valueBaseSize + wordSize
	case String:
		return valueBaseSize + len(val)
	case Bytes:
		return valueBaseSize + len(val)
	case Int64Slice:
		return valueBaseSize + wordSize*len(val)
	case IDSlice:
		n := valueBaseSize
		for _, id := range val {
			n += wordSize + len(id)
		}
		return n
	default:
		// Application-defined payloads: charge a flat struct estimate rather
		// than reflecting over them on the hot path.
		return valueBaseSize + 4*wordSize
	}
}
