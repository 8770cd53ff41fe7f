package obs

import (
	"fmt"
	"math"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryIdempotentAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("lg_test_ops_total", "ops")
	c2 := r.Counter("lg_test_ops_total", "ops")
	c1.Add(3)
	c2.Inc()
	if got := c1.Value(); got != 4 {
		t.Fatalf("counter not shared across registrations: %d", got)
	}

	g := r.Gauge("lg_test_depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	r.GaugeFunc("lg_test_uptime_seconds", "uptime", func() float64 { return 1.5 })
	// Replacing a gauge func takes the newest callback.
	r.GaugeFunc("lg_test_uptime_seconds", "uptime", func() float64 { return 2.5 })

	h := r.Histogram("lg_test_latency_seconds", "latency")
	h.Record(time.Millisecond)

	lc := r.Counter("lg_test_hops_total", "hops", Label{Key: "kind", Value: "out"})
	lc.Inc()

	snap := r.Snapshot()
	if v := snap["lg_test_ops_total"]; v.Value != 4 {
		t.Fatalf("snapshot counter = %v", v.Value)
	}
	if v := snap["lg_test_depth"]; v.Value != 5 {
		t.Fatalf("snapshot gauge = %v", v.Value)
	}
	if v := snap["lg_test_uptime_seconds"]; v.Value != 2.5 {
		t.Fatalf("gauge func not replaced: %v", v.Value)
	}
	hs := snap["lg_test_latency_seconds"]
	if hs.Hist == nil || hs.Hist.Count != 1 {
		t.Fatalf("snapshot histogram missing: %+v", hs)
	}
	if v, ok := snap[`lg_test_hops_total{kind="out"}`]; !ok || v.Value != 1 {
		t.Fatalf("labeled counter snapshot missing: %+v", v)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("lg_race_total", "x").Inc()
				r.Histogram("lg_race_seconds", "x").Record(time.Microsecond)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("lg_race_total", "x").Value(); got != 8000 {
		t.Fatalf("lost counter increments: %d", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("lg_core_commits_total", "committed transactions").Add(42)
	r.Gauge("lg_core_vertices", "live vertices").Set(10)
	r.GaugeFunc("lg_core_uptime_seconds", "seconds since open", func() float64 { return 12.25 })
	h := r.Histogram("lg_commit_latency_seconds", "commit latency")
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i+1) * time.Microsecond)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkExposition(t, out)

	for _, want := range []string{
		"# TYPE lg_core_commits_total counter",
		"lg_core_commits_total 42",
		"# TYPE lg_core_vertices gauge",
		"lg_core_vertices 10",
		"lg_core_uptime_seconds 12.25",
		"# TYPE lg_commit_latency_seconds histogram",
		`lg_commit_latency_seconds_bucket{le="+Inf"} 100`,
		"lg_commit_latency_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// checkExposition is a minimal strictness check of the text format:
// every non-comment line is `name{labels} value`, histogram buckets are
// cumulative and monotone, and _count matches the +Inf bucket.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	infBuckets := map[string]uint64{}
	counts := map[string]uint64{}
	lastCum := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		if val == "" {
			t.Fatalf("empty value in %q", line)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
			name = series[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			base := strings.TrimSuffix(name, "_bucket")
			var v int64
			if _, err := fmt.Sscan(val, &v); err != nil {
				t.Fatalf("non-numeric bucket count %q: %v", line, err)
			}
			if v < lastCum[base] {
				t.Fatalf("non-monotone buckets for %s: %d after %d", base, v, lastCum[base])
			}
			lastCum[base] = v
			if strings.Contains(series, `le="+Inf"`) {
				infBuckets[base] = uint64(v)
			}
		}
		if strings.HasSuffix(name, "_count") {
			var v uint64
			if _, err := fmt.Sscan(val, &v); err != nil {
				t.Fatalf("non-numeric count %q: %v", line, err)
			}
			counts[strings.TrimSuffix(name, "_count")] = v
		}
	}
	for base, c := range counts {
		if inf, ok := infBuckets[base]; ok && inf != c {
			t.Errorf("%s: +Inf bucket %d != count %d", base, inf, c)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{50, 40, 9, 1},
		Buckets: []float64{0, 1e-6, 1e-5, 1e-4, math.Inf(1)},
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 1e-6}, {0.9, 1e-5}, {0.99, 1e-4}, {1, 1e-4}} {
		if got := histQuantile(h, c.q); got != c.want {
			t.Errorf("quantile %v = %v, want %v", c.q, got, c.want)
		}
	}
	if got := histQuantile(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkExposition(t, out)
	for _, want := range []string{
		"# TYPE lg_go_goroutines gauge",
		"# TYPE lg_go_sched_latency_seconds gauge",
		`lg_go_sched_latency_seconds{quantile="0.5"} `,
		`lg_go_sched_latency_seconds{quantile="0.99"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if g := r.Snapshot()["lg_go_goroutines"].Value; g < 1 {
		t.Errorf("lg_go_goroutines = %v", g)
	}
}
