// Package obs is the observability layer of QR-DTM: lock-free log-bucketed
// latency histograms, abort counters by cause, a per-transaction span ring
// (the one per-transaction record: attempts, reads, commits, aborts,
// checkpoints and rollbacks), and an HTTP admin surface (/metrics, /healthz,
// pprof) for live nodes.
//
// Everything in the package is built for the protocol hot path: recording a
// sample is a handful of atomic adds with zero allocation, a nil *Registry
// (the default) makes every instrumentation site a no-op, and snapshots are
// plain values that serialize to JSON.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: values are bucketed log-linearly with subBits
// significant bits — each power-of-two octave is split into histSub linear
// sub-buckets, bounding the relative error of any reconstructed value by
// 1/histSub (~3% with subBits = 5). Values below histSub are recorded
// exactly (their own bucket).
const (
	subBits = 5
	histSub = 1 << subBits
	// numBuckets covers the full non-negative int64 range: buckets
	// [0, histSub) are the exact linear region, then (63-subBits) octaves
	// of histSub sub-buckets each.
	numBuckets = (64 - subBits) * histSub
)

// bucketOf maps a non-negative value to its bucket index (monotone in v).
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	return shift*histSub + int(v>>shift)
}

// bucketBounds returns the inclusive value range covered by bucket idx.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < histSub {
		return uint64(idx), uint64(idx)
	}
	shift := idx/histSub - 1
	top := uint64(histSub + idx%histSub)
	lo = top << shift
	hi = lo + (1 << shift) - 1
	return lo, hi
}

// Histogram is a lock-free log-bucketed histogram of non-negative int64
// samples (typically durations in nanoseconds). Record is safe for
// unsynchronized concurrent use and never allocates; the zero value is ready
// to use. A nil *Histogram no-ops on every method.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // stored as math.MaxUint64 when empty
	max     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one sample. Negative samples are clamped to zero (a clock
// hiccup must not corrupt the bucket index).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.count.Add(1)
	h.sum.Add(u)
	h.buckets[bucketOf(u)].Add(1)
	// min and max are stored off-by-one (v+1) so that zero means "unset".
	for {
		cur := h.min.Load()
		if cur != 0 && u+1 >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, u+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur != 0 && u+1 <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, u+1) {
			break
		}
	}
}

// Snapshot copies the histogram into a plain value. Concurrent
// Records may land between field reads; the snapshot is a consistent-enough
// view for reporting (counts never decrease).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if mn := h.min.Load(); mn != 0 {
		s.Min = int64(mn - 1)
	}
	if mx := h.max.Load(); mx != 0 {
		s.Max = int64(mx - 1)
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			s.buckets = append(s.buckets, bucketCount{Idx: i, N: c})
		}
	}
	return s
}

// bucketCount is one non-empty bucket of a snapshot.
type bucketCount struct {
	Idx int
	N   uint64
}

// HistSnapshot is a plain-value copy of a Histogram: queryable for
// quantiles, and cheap to keep around (only non-empty buckets are
// stored).
type HistSnapshot struct {
	Count uint64
	Sum   uint64
	Min   int64
	Max   int64

	buckets []bucketCount // sorted by Idx
}

// CumBucket is one step of a cumulative bucket distribution: Count samples
// were ≤ UpperBound (Prometheus "le" semantics).
type CumBucket struct {
	UpperBound int64
	Count      uint64
}

// CumBuckets converts the sparse bucket list into a cumulative distribution
// suitable for Prometheus histogram exposition. Only non-empty buckets
// produce steps; the final step's Count equals the snapshot's Count.
func (s HistSnapshot) CumBuckets() []CumBucket {
	out := make([]CumBucket, 0, len(s.buckets))
	var cum uint64
	for _, b := range s.buckets {
		_, hi := bucketBounds(b.Idx)
		cum += b.N
		out = append(out, CumBucket{UpperBound: int64(hi), Count: cum})
	}
	return out
}

// Quantile returns the q-quantile (q in [0,1]) as the midpoint of the bucket
// holding the target rank — within 1/histSub (~3%) of the true sample value.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, b := range s.buckets {
		cum += b.N
		if cum >= target {
			lo, hi := bucketBounds(b.Idx)
			mid := lo + (hi-lo)/2
			// The exact extremes beat the bucket estimate at the edges.
			if v := uint64(s.Max); cum == s.Count && mid > v {
				return s.Max
			}
			if v := uint64(s.Min); mid < v {
				return s.Min
			}
			return int64(mid)
		}
	}
	return s.Max
}

// P50, P90, P99 and P999 are the standard reporting quantiles.
func (s HistSnapshot) P50() int64  { return s.Quantile(0.50) }
func (s HistSnapshot) P90() int64  { return s.Quantile(0.90) }
func (s HistSnapshot) P99() int64  { return s.Quantile(0.99) }
func (s HistSnapshot) P999() int64 { return s.Quantile(0.999) }

// Mean returns the arithmetic mean of the recorded samples (exact: Sum and
// Count are tracked directly, not reconstructed from buckets).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Stats condenses a snapshot into the serializable summary the /metrics
// endpoint reports. Durations are reported in
// milliseconds; dimensionless sites (e.g. rollback depth) read the same
// fields as raw values via Raw* helpers on the consumer side.
type Stats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Stats summarizes the snapshot with durations converted to milliseconds.
func (s HistSnapshot) Stats() Stats {
	ms := func(v int64) float64 { return float64(v) / float64(time.Millisecond) }
	return Stats{
		Count:  s.Count,
		MeanMs: s.Mean() / float64(time.Millisecond),
		P50Ms:  ms(s.P50()),
		P90Ms:  ms(s.P90()),
		P99Ms:  ms(s.P99()),
		P999Ms: ms(s.P999()),
		MaxMs:  ms(s.Max),
	}
}

// String renders a one-line summary (count, mean and tail quantiles).
func (s HistSnapshot) String() string {
	if s.Count == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count, time.Duration(s.Mean()), time.Duration(s.P50()),
		time.Duration(s.P99()), time.Duration(s.Max))
}
