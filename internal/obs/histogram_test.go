package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantileVsSort checks bucketed quantiles against an exact
// reference sort: the log-linear scheme promises <7% relative error.
func TestHistogramQuantileVsSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 9))
	h := NewHistogram()
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform latencies between ~100ns and ~1s.
		ns := int64(100 * math.Pow(10, rng.Float64()*7))
		samples = append(samples, ns)
		h.Record(time.Duration(ns))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Snapshot()
	if got := s.Count; got != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", got, len(samples))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		idx := int(q*float64(len(samples))) - 1
		if idx < 0 {
			idx = 0
		}
		exact := float64(samples[idx])
		got := float64(s.Quantile(q).Nanoseconds())
		relerr := (got - exact) / exact
		if relerr < -0.10 || relerr > 0.10 {
			t.Errorf("q=%v: got %v exact %v (relerr %.3f)", q, got, exact, relerr)
		}
	}
}

func TestHistogramConcurrentRecordMerge(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 5000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 7))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(rng.Int64N(1e6)))
			}
		}(uint64(g))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}

	var merged HistSnapshot
	merged.Merge(s)
	merged.Merge(s)
	if merged.Count != 2*s.Count || merged.SumNs != 2*s.SumNs {
		t.Fatalf("merge: count %d sum %d, want %d / %d", merged.Count, merged.SumNs, 2*s.Count, 2*s.SumNs)
	}
	if merged.Quantile(0.5) != s.Quantile(0.5) {
		t.Fatalf("self-merge changed median: %v vs %v", merged.Quantile(0.5), s.Quantile(0.5))
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(time.Millisecond) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatalf("nil histogram snapshot not empty: %+v", s)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	h.Record(100 * time.Microsecond)
	h.Record(300 * time.Microsecond)
	s := h.Snapshot()
	if got := s.Mean(); got != 200*time.Microsecond {
		t.Fatalf("mean %v", got)
	}
	if h.Count() != 2 || s.Count != 2 {
		t.Fatalf("count %d, snapshot count %d", h.Count(), s.Count)
	}
}

func TestHistogramEmptyIsZero(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Mean() != 0 || s.Quantile(0.99) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for ns := uint64(1); ns < uint64(10*time.Second); ns *= 3 {
		b := histIndex(ns)
		if b < prev {
			t.Fatalf("bucket not monotone at %dns: %d < %d", ns, b, prev)
		}
		if lo := histLower(b); lo > ns {
			t.Fatalf("bucket %d lower bound %d above its sample %d", b, lo, ns)
		}
		prev = b
	}
}
