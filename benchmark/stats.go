package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of sorted values. ok is false
// unless at least tailBeyond samples lie beyond the returned rank: a
// percentile resting on fewer samples is one stall, not a distribution.
func quantile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= tailBeyond
}

// classQuantile is quantile for one latency class of a window, in
// nanoseconds: a class with fewer than minClassSample samples is not
// reported at all.
func classQuantile(sorted []int64, q float64) (float64, bool) {
	if len(sorted) < minClassSample {
		return 0, false
	}
	v, ok := quantile(sorted, q)
	return float64(v), ok
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (exclusive method).
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}
