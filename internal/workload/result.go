// Package workload holds what the LinkBench and SNB drivers share: the
// measurement a run returns and its paper-style formatting. The drivers
// record into obs histograms, the engine's one instrument library.
package workload

import (
	"fmt"
	"time"

	"livegraph/internal/obs"
)

// Ms formats a duration as milliseconds with the paper's 4-significant
// digit style.
func Ms(d time.Duration) string {
	return fmt.Sprintf("%.4f", float64(d.Nanoseconds())/1e6)
}

// Result is one benchmark measurement: a latency distribution plus the
// wall-clock throughput it was achieved at.
type Result struct {
	Name       string
	Hist       *obs.Histogram
	Elapsed    time.Duration
	Operations int64
}

// Throughput returns operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Operations) / r.Elapsed.Seconds()
}

// String renders the paper's latency-table row.
func (r Result) String() string {
	s := r.Hist.Snapshot()
	return fmt.Sprintf("%-24s mean=%sms p99=%sms p999=%sms thpt=%.0f req/s",
		r.Name, Ms(s.Mean()), Ms(s.Quantile(0.99)), Ms(s.Quantile(0.999)), r.Throughput())
}
