package main

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"livegraph/internal/disk"
)

var tinyGraph = graphSpec{LogN: 9, MeanDeg: 8, MaxDeg: 64, DegExp: 0.7, DstExp: 0.5}

func tinyDef() *workloadDef {
	return &workloadDef{
		name: "tiny", graph: tinyGraph, headline: cWrite,
		mix:      []mixEntry{{kNeighbors, 300}, {kTx, 400}, {kTrav2, 200}, {kUpsert, 100}},
		openRate: 500, closedRef: 500,
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	a := genInputs(tinyDef(), 7, 2, false)
	b := genInputs(tinyDef(), 7, 2, false)
	c := genInputs(tinyDef(), 8, 2, false)
	if a.open.hash() != b.open.hash() || a.closed.hash() != b.closed.hash() {
		t.Fatal("same seed produced different request lists")
	}
	if a.open.hash() == c.open.hash() {
		t.Fatal("different seeds produced the same request list")
	}
	if open, _ := tinyDef().windows(2); len(a.open.reqs) != open || open != int(500*openShare*2) {
		t.Fatalf("open window has %d requests, want rate x share x seconds", len(a.open.reqs))
	}
	// Degrees do not depend on the seed: the same amount of work per seed.
	if a.m.edges() != c.m.edges() {
		t.Fatalf("edge count differs between seeds: %d vs %d", a.m.edges(), c.m.edges())
	}
}

func TestEachPairWrittenOnce(t *testing.T) {
	in := genInputs(tinyDef(), 3, 2, false)
	seen := map[uint64]bool{}
	for _, l := range []*reqList{in.open, in.closed} {
		for _, o := range l.ops {
			if o.code == opAddVertex {
				continue
			}
			k := pairKey(o.src, o.dst)
			if seen[k] {
				t.Fatalf("pair (%d,%d) written twice: final state would depend on the interleaving", o.src, o.dst)
			}
			seen[k] = true
			if o.code == opDelete && !in.m.has(int(o.src), int(o.dst)) {
				t.Fatalf("delete of (%d,%d), which the base graph lacks", o.src, o.dst)
			}
		}
	}
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	if got, ok := quantile(v, 0.90); !ok || got != 90 {
		t.Fatalf("p90 of 1..100 = %d, %v; want 90 with ten samples beyond", got, ok)
	}
	if _, ok := quantile(v, 0.91); ok {
		t.Fatal("p91 of 100 samples has nine samples beyond it and must not be reported")
	}
	if _, ok := quantile(v[:19], 0.50); ok {
		t.Fatal("median of 19 samples has nine beyond it and must not be reported")
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Fatal("quantile of nothing reported")
	}
}

func TestClassQuantileRules(t *testing.T) {
	v := make([]int64, minClassSample)
	for i := range v {
		v[i] = int64(i + 1)
	}
	if _, ok := classQuantile(v[:minClassSample-1], 0.5); ok {
		t.Fatal("a class with fewer than the minimum samples was reported")
	}
	// The gated percentile is the window's own: a stall that hits a tenth of
	// the window's requests must move p90.
	if got, ok := classQuantile(v, 0.9); !ok || got != 0.9*minClassSample {
		t.Fatalf("p90 = %v, %v; want %v", got, ok, 0.9*minClassSample)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	v := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	want := (31.0 - 3.5) / 13.5
	if got := quartileSpread(v); math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

// stallExec answers instantly except for one request that stalls.
type stallExec struct {
	stallAt int
	stall   time.Duration
}

func (e *stallExec) exec(w int, l *reqList, i int) bool {
	if i == e.stallAt {
		time.Sleep(e.stall)
	}
	return true
}

func TestOpenLoopChargesQueueWait(t *testing.T) {
	// One sender, a request every 2 ms; request 10 stalls 50 ms. Requests
	// due during the stall wait behind it, and their latency, counted from
	// the due time, must show it.
	const gap = 2 * time.Millisecond
	l := &reqList{reqs: make([]req, 60), due: make([]int64, 60)}
	for i := range l.due {
		l.due[i] = int64(i+1) * int64(gap)
	}
	res := runWindow(context.Background(), &stallExec{stallAt: 10, stall: 50 * time.Millisecond}, l, 1, nil)
	if res.unsent != 0 {
		t.Fatalf("%d requests unsent", res.unsent)
	}
	for i, s := range res.samples {
		lat := time.Duration(s.done - s.due)
		switch {
		case i < 10 && lat > 20*time.Millisecond:
			t.Fatalf("request %d before the stall has latency %v", i, lat)
		case i == 11:
			// Due 2 ms into a 50 ms stall: waits about 48 ms.
			if lat < 40*time.Millisecond {
				t.Fatalf("request %d was due during the stall but has latency %v: queue wait not charged", i, lat)
			}
			if s.waited {
				t.Fatalf("request %d queued behind the stall yet counts as generator lateness", i)
			}
		}
	}
	// The same stall in a closed loop delays later sends instead.
	l.due = nil
	res = runWindow(context.Background(), &stallExec{stallAt: 10, stall: 50 * time.Millisecond}, l, 1, nil)
	if d := time.Duration(res.samples[11].done - res.samples[11].sent); d > 20*time.Millisecond {
		t.Fatalf("closed-loop service time of request 11 is %v", d)
	}
}

func TestSaturatedWindowCountsUnsent(t *testing.T) {
	// Every request takes 10x its interval: the window cannot keep up.
	l := &reqList{reqs: make([]req, 50), due: make([]int64, 50)}
	for i := range l.due {
		l.due[i] = int64(i+1) * int64(time.Millisecond)
	}
	res := runWindow(context.Background(), &stallExec{stallAt: -1}, l, 1, nil)
	if res.saturated {
		t.Fatal("an idle window was flagged saturated")
	}
	slow := executorFunc(func(int, *reqList, int) bool { time.Sleep(10 * time.Millisecond); return true })
	res = runWindow(context.Background(), slow, l, 1, nil)
	if !res.saturated || res.unsent == 0 {
		t.Fatalf("saturated=%v unsent=%d; want a saturated window with unsent requests", res.saturated, res.unsent)
	}
	r := &runResult{Counts: map[string]int{}}
	r.tally(res)
	if r.Failed != res.unsent {
		t.Fatalf("failed=%d, want the %d unsent requests", r.Failed, res.unsent)
	}
}

type executorFunc func(int, *reqList, int) bool

func (f executorFunc) exec(w int, l *reqList, i int) bool { return f(w, l, i) }

// fakeBackend records what reaches the wrapped side of recBackend.
type fakeBackend struct {
	disk.Backend
	mu      sync.Mutex
	log     bytes.Buffer
	atomic  bytes.Buffer
	calls   []string
	opened  []string
	created []string
}

func (b *fakeBackend) note(c string) {
	b.mu.Lock()
	b.calls = append(b.calls, c)
	b.mu.Unlock()
}
func (b *fakeBackend) Name() string { return "fake" }
func (b *fakeBackend) OpenLog(path string, geo disk.LogGeometry) (disk.LogFile, error) {
	b.opened = append(b.opened, path)
	return &fakeLog{b: b}, nil
}
func (b *fakeBackend) CreateAtomic(path string) (disk.AtomicFile, error) {
	b.created = append(b.created, path)
	return &fakeAtomic{b: b}, nil
}
func (b *fakeBackend) SyncDir(dir string) error { b.note("syncdir " + dir); return nil }
func (b *fakeBackend) Remove(path string) error { b.note("remove " + path); return nil }
func (b *fakeBackend) DefaultWALShards() int    { return 3 }

type fakeLog struct{ b *fakeBackend }

func (l *fakeLog) Write(p []byte) (int, error) { l.b.note("log.write"); return l.b.log.Write(p) }
func (l *fakeLog) Accept(n int) (int, error)   { l.b.note("log.accept"); return n - 1, nil }
func (l *fakeLog) Sync() error                 { l.b.note("log.sync"); return nil }
func (l *fakeLog) Close() error                { l.b.note("log.close"); return nil }

type fakeAtomic struct{ b *fakeBackend }

func (a *fakeAtomic) Write(p []byte) (int, error) {
	a.b.note("atomic.write")
	return a.b.atomic.Write(p)
}
func (a *fakeAtomic) Commit() error { a.b.note("atomic.commit"); return nil }
func (a *fakeAtomic) Abort() error  { a.b.note("atomic.abort"); return nil }

func TestRecordingBackendForwardsEverything(t *testing.T) {
	fake := &fakeBackend{}
	tr := &tracer{}
	tr.begin("test")
	var rb disk.Backend = &recBackend{Backend: fake, tr: tr}

	if rb.Name() != "fake" || rb.DefaultWALShards() != 3 {
		t.Fatal("Name/DefaultWALShards not forwarded")
	}
	lf, err := rb.OpenLog("wal-1", disk.LogGeometry{Seq: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("twenty bytes of WAL..")
	if n, err := lf.Write(payload); n != len(payload) || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if n, _ := lf.Accept(10); n != 9 {
		t.Fatalf("Accept not forwarded: got %d", n)
	}
	if err := lf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	af, err := rb.CreateAtomic("ckpt-1.snap")
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte("snapshot"))
	if err := af.Commit(); err != nil {
		t.Fatal(err)
	}
	af2, _ := rb.CreateAtomic("ckpt-2.snap")
	af2.Abort()
	rb.SyncDir("d")
	rb.Remove("old")

	if !bytes.Equal(fake.log.Bytes(), payload) || fake.atomic.String() != "snapshot" {
		t.Fatalf("bytes changed on the way through: log %q atomic %q", fake.log.Bytes(), fake.atomic.Bytes())
	}
	want := []string{"log.write", "log.accept", "log.sync", "log.close", "atomic.write", "atomic.commit", "atomic.abort", "syncdir d", "remove old"}
	if len(fake.calls) != len(want) {
		t.Fatalf("calls = %v, want %v", fake.calls, want)
	}
	for i := range want {
		if fake.calls[i] != want[i] {
			t.Fatalf("call %d = %q, want %q", i, fake.calls[i], want[i])
		}
	}
	r := rb.(*recBackend)
	if r.logBytes.Load() != int64(len(payload)) || r.logWrites.Load() != 1 || r.logSyncs.Load() != 1 ||
		r.atomicBytes.Load() != 8 || r.atomicCommits.Load() != 1 {
		t.Fatal("recorded counts do not match what was forwarded")
	}
	names := map[string]int{}
	for name, sp := range tr.stageSpans("test") {
		names[name] = len(sp)
	}
	if names["disk.write"] != 1 || names["disk.sync"] != 1 || names["disk.atomic_commit"] != 1 {
		t.Fatalf("spans = %v", names)
	}
}

func TestCoveredNsIsAUnion(t *testing.T) {
	// Two overlapping syncs (fanned-out shards) and one write inside a
	// commit from 100 to 200; a span reaching outside is not a child.
	children := []span{{Start: 110, End: 120}, {Start: 130, End: 160}, {Start: 140, End: 170}, {Start: 190, End: 260}}
	if got := coveredNs(children, 100, 200); got != 10+40 {
		t.Fatalf("covered = %d, want 50", got)
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			better := "lower"
			if want[i].higher {
				better = "higher"
			}
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, m, want[i])
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v * 1.002} }
	noisy := func(v float64) []float64 { return []float64{v * 0.7, v, v * 1.3, v * 0.8, v * 1.25} }
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"latency up 20 %", steady(1), steady(1.2), false, "REGRESSED"},
		{"latency down 20 %", steady(1), steady(0.8), false, "improved"},
		{"throughput down 20 %", steady(1000), steady(800), true, "REGRESSED"},
		{"within bound", steady(1), steady(1.03), false, "unchanged"},
		{"within bound but noisy", noisy(1), noisy(1.03), false, "unresolved"},
		{"noisy and past the bound", noisy(1), noisy(1.5), false, "REGRESSED"},
	} {
		if _, _, got := verdict(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"--trace", "0", "--seed", "3"}, []string{"-trace=0", "--seed", "3"}},
		{[]string{"--workload", "x", "--trace", "1"}, []string{"--workload", "x", "-trace=1"}},
		{[]string{"-trace=0"}, []string{"-trace=0"}},
	} {
		got := normalizeTrace(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("%v -> %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%v -> %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestBothPassesEndToEnd drives a tiny durable workload through the gated
// and the traced pass: every check passes, nothing fails, and the traced
// pass reports every per-layer metric and writes its span file.
func TestBothPassesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two one-second windows")
	}
	def := tinyDef()
	def.durable, def.ckptEvery = true, 0.25
	ctx := context.Background()

	res, err := runUntraced(ctx, genInputs(def, 5, 1, false), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Saturated {
		t.Fatalf("gated pass: correct=%v failed=%d of %d saturated=%v", res.Correct, res.Failed, res.Attempted, res.Saturated)
	}
	for _, name := range []string{"setup_s", "sat_rate_s", "mem_bytes_per_edge"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name].Value)
		}
	}
	if res.Counts["checkpoints"] == 0 || res.Counts["ack_checks"] == 0 {
		t.Errorf("counts = %v: want checkpoints issued and acknowledged writes replayed", res.Counts)
	}

	out := t.TempDir()
	tres, err := runTraced(ctx, genInputs(def, 5, 1, true), t.TempDir(), out)
	if err != nil {
		t.Fatal(err)
	}
	if !tres.Correct || tres.Failed != 0 {
		t.Fatalf("traced pass: correct=%v failed=%d of %d", tres.Correct, tres.Failed, tres.Attempted)
	}
	if len(tres.Metrics) != len(perLayer) {
		t.Fatalf("traced pass reports %d metrics, want the %d per-layer ones", len(tres.Metrics), len(perLayer))
	}
	for _, name := range []string{"server.tx_handle_us_p50", "core.commit_us_p50", "disk.syncs_per_commit", "tel.scan_ns_per_edge", "core.recover_ms"} {
		if tres.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, tres.Metrics[name].Value)
		}
	}
	for _, name := range []string{"server.nbr_self_us", "server.tx_self_us", "server.trav_self_us", "core.commit_self_us_p50"} {
		if tres.Metrics[name].Value < 0 {
			t.Errorf("%s = %v is negative", name, tres.Metrics[name].Value)
		}
	}
	if tres.SpanFile == "" || tres.Counts["spans"] == 0 {
		t.Fatal("no span file written")
	}
}
