package obs

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Histogram bucketing is log-linear: 64 major power-of-two scales of 16
// minor buckets each, spanning 1ns to centuries with <7% quantile error
// — plenty for the paper's mean/p99/p999 tables, which the workload
// drivers record into the same type. The buckets are lock-striped: Record
// picks a stripe with the runtime's per-P fast random source, so
// concurrent recorders on different cores rarely contend on the same
// cache lines. Snapshot folds the stripes together.
const (
	histMajors  = 64
	histMinors  = 16
	histBuckets = histMajors * histMinors
	histStripes = 4 // power of two
)

type histStripe struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	_       [48]byte // keep adjacent stripes' count/sum off one line
}

// Histogram is a concurrent latency histogram. Use NewHistogram or
// Registry.Histogram; the zero value is NOT ready (stripes are fine, but
// callers should treat a nil *Histogram as "recording disabled").
type Histogram struct {
	stripes [histStripes]histStripe
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func histIndex(ns uint64) int {
	if ns == 0 {
		ns = 1
	}
	major := bits.Len64(ns) - 1
	var minor uint64
	if major >= 4 {
		minor = (ns >> (uint(major) - 4)) & 15
	} else {
		minor = (ns << (4 - uint(major))) & 15
	}
	return major*histMinors + int(minor)
}

// histLower returns bucket i's lower bound in nanoseconds.
func histLower(i int) uint64 {
	major := i / histMinors
	minor := i % histMinors
	if major >= 4 {
		return (1 << uint(major)) | (uint64(minor) << (uint(major) - 4))
	}
	return 1 << uint(major)
}

// Record adds one latency sample. Negative durations count as zero. Safe
// to call on a nil receiver (no-op), so instrumentation sites don't need
// an enabled check.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	s := &h.stripes[rand.Uint64()&(histStripes-1)]
	s.buckets[histIndex(uint64(ns))].Add(1)
	s.count.Add(1)
	s.sum.Add(ns)
}

// Count returns the number of samples recorded so far.
func (h *Histogram) Count() int64 {
	var n uint64
	if h != nil {
		for i := range h.stripes {
			n += h.stripes[i].count.Load()
		}
	}
	return int64(n)
}

// HistSnapshot is a point-in-time copy of a histogram, mergeable with
// other snapshots (e.g. across shards or scrape windows).
type HistSnapshot struct {
	Buckets [histBuckets]uint64
	Count   uint64
	SumNs   int64
}

// Snapshot folds the stripes into one consistent-enough view. Individual
// bucket reads are atomic; a sample racing the fold may or may not be
// included, which is the usual histogram scrape contract.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.buckets {
			if v := st.buckets[b].Load(); v != 0 {
				s.Buckets[b] += v
			}
		}
		s.Count += st.count.Load()
		s.SumNs += st.sum.Load()
	}
	return s
}

// Merge adds o's samples into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.SumNs += o.SumNs
}

// Quantile returns the q-quantile (0 < q <= 1) as a duration: the lower
// bound of the bucket holding it.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= target {
			return time.Duration(histLower(i))
		}
	}
	return time.Duration(histLower(histBuckets - 1))
}

// Mean returns the average recorded latency.
func (s *HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / int64(s.Count))
}
