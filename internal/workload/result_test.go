package workload

import (
	"testing"
	"time"

	"livegraph/internal/obs"
)

func TestThroughput(t *testing.T) {
	h := obs.NewHistogram()
	h.Record(time.Millisecond)
	r := Result{Name: "x", Hist: h, Elapsed: 2 * time.Second, Operations: 1000}
	if got := r.Throughput(); got != 500 {
		t.Fatalf("throughput %f", got)
	}
	if s := r.String(); s == "" {
		t.Fatal("empty string")
	}
	zero := Result{Name: "z", Hist: h}
	if zero.Throughput() != 0 {
		t.Fatal("zero elapsed should give zero throughput")
	}
}
