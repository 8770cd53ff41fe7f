package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strconv"
)

// schedLatencies is the runtime/metrics histogram of how long goroutines
// sat runnable before they ran, cumulative since the process started.
const schedLatencies = "/sched/latencies:seconds"

// RegisterRuntime adds the Go runtime's gauges to r: lg_go_goroutines and
// lg_go_sched_latency_seconds at quantiles 0.5 and 0.99. They are callback
// gauges, so the runtime is read only when the registry is scraped.
func RegisterRuntime(r *Registry) {
	r.GaugeFunc("lg_go_goroutines", "goroutines that currently exist",
		func() float64 { return float64(runtime.NumGoroutine()) })
	for _, q := range []float64{0.5, 0.99} {
		r.GaugeFunc("lg_go_sched_latency_seconds", "time goroutines spent runnable before running, since process start",
			func() float64 { return schedLatency(q) },
			Label{Key: "quantile", Value: strconv.FormatFloat(q, 'g', -1, 64)})
	}
}

func schedLatency(q float64) float64 {
	s := []metrics.Sample{{Name: schedLatencies}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	return histQuantile(s[0].Value.Float64Histogram(), q)
}

// histQuantile returns the upper bound of the bucket holding quantile q of
// h (the lower bound for an unbounded last bucket), or 0 for an empty h.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if ub := h.Buckets[i+1]; !math.IsInf(ub, 1) {
				return ub
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
