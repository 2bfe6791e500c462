package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and bucket
	// indices must be monotone in the value.
	vals := []uint64{0, 1, 2, histSub - 1, histSub, histSub + 1, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	prevIdx := -1
	for _, v := range vals {
		idx := bucketOf(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Errorf("value %d landed in bucket %d with bounds [%d, %d]", v, idx, lo, hi)
		}
		if idx < prevIdx {
			t.Errorf("bucket index not monotone: %d for value %d after %d", idx, v, prevIdx)
		}
		prevIdx = idx
		if idx >= numBuckets {
			t.Errorf("bucket %d for value %d out of range (%d buckets)", idx, v, numBuckets)
		}
	}
}

func TestHistogramExactLinearRegion(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < histSub; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != histSub {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0 || s.Max != histSub-1 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	// Small values are recorded exactly, so the median must be exact too.
	if got := s.Quantile(0.5); got != histSub/2-1 && got != histSub/2 {
		t.Fatalf("p50 = %d, want ~%d", got, histSub/2)
	}
}

// TestHistogramQuantileAccuracy checks percentile estimates against a
// sorted-slice oracle: the log-linear geometry bounds the relative error of
// any reconstructed value by 1/histSub, so estimates must sit within ~4% of
// the true order statistic (plus a one-rank slack at the boundaries).
func TestHistogramQuantileAccuracy(t *testing.T) {
	distributions := map[string]func(*rand.Rand) int64{
		"uniform":   func(r *rand.Rand) int64 { return r.Int64N(10_000_000) },
		"exp":       func(r *rand.Rand) int64 { return int64(rand.NewZipf(nil, 0, 0, 0).Uint64()) },
		"lognormal": func(r *rand.Rand) int64 { return int64(math.Exp(10 + 3*r.NormFloat64())) },
		"constant":  func(r *rand.Rand) int64 { return 123456 },
	}
	// Zipf with nil rand panics; build the exp generator properly instead.
	distributions["exp"] = func(r *rand.Rand) int64 { return int64(-1_000_000 * math.Log(1-r.Float64())) }

	for name, gen := range distributions {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(7, 13))
			const n = 20_000
			h := NewHistogram()
			samples := make([]int64, n)
			for i := range samples {
				v := gen(r)
				if v < 0 {
					v = 0
				}
				samples[i] = v
				h.Record(v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				got := s.Quantile(q)
				rank := int(math.Ceil(q*float64(n))) - 1
				// One rank of slack on each side absorbs the tie-breaking
				// freedom inside a shared bucket.
				lo := samples[max(0, rank-1)]
				hi := samples[min(n-1, rank+1)]
				tol := func(v int64) int64 { return int64(float64(v)*0.04) + 1 }
				if got < lo-tol(lo) || got > hi+tol(hi) {
					t.Errorf("q%.3f = %d, oracle %d (allowed [%d, %d] ±4%%)",
						q, got, samples[rank], lo, hi)
				}
			}
			if s.Min != samples[0] || s.Max != samples[n-1] {
				t.Errorf("min/max = %d/%d, oracle %d/%d", s.Min, s.Max, samples[0], samples[n-1])
			}
			var sum uint64
			for _, v := range samples {
				sum += uint64(v)
			}
			if s.Sum != sum {
				t.Errorf("sum = %d, oracle %d", s.Sum, sum)
			}
		})
	}
}

// TestHistogramConcurrentRecord hammers one histogram from many goroutines;
// run under -race this is the lock-freedom witness, and the final count/sum
// must be exact (atomic adds lose nothing).
func TestHistogramConcurrentRecord(t *testing.T) {
	const workers = 8
	const perWorker = 10_000
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 99))
			for i := 0; i < perWorker; i++ {
				h.Record(r.Int64N(1_000_000))
				if i%1000 == 0 {
					_ = h.Snapshot() // concurrent snapshots must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketTotal uint64
	for _, b := range s.buckets {
		bucketTotal += b.N
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestHistogramNilAndEmpty(t *testing.T) {
	var h *Histogram
	h.Record(5) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Errorf("nil histogram snapshot not empty: %+v", s)
	}
	if got := (HistSnapshot{}).String(); got != "empty" {
		t.Errorf("empty String() = %q", got)
	}
	// Negative samples clamp instead of corrupting the bucket index.
	h2 := NewHistogram()
	h2.Record(-17)
	if s := h2.Snapshot(); s.Count != 1 || s.Min != 0 || s.Max != 0 {
		t.Errorf("negative clamp: %+v", s)
	}
}

func TestHistogramStatsMs(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(int64(2 * time.Millisecond))
	}
	st := h.Snapshot().Stats()
	if st.Count != 100 {
		t.Fatalf("count = %d", st.Count)
	}
	for name, v := range map[string]float64{"p50": st.P50Ms, "p99": st.P99Ms, "max": st.MaxMs, "mean": st.MeanMs} {
		if v < 1.9 || v > 2.1 {
			t.Errorf("%s = %v ms, want ~2", name, v)
		}
	}
}
