package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"livegraph"
	"livegraph/internal/analytics"
)

// inputs is everything one run feeds the engine, generated up front from
// (workload, seed, seconds) before any engine code runs.
type inputs struct {
	def     *workloadDef
	seed    uint64
	seconds float64
	m       *model
	gen     *generator
	warm    *reqList
	open    *reqList // open-loop window
	closed  *reqList // closed-loop window (untraced pass; nil on htap_scan)
	base    *reqList // untraced comparison window of the traced pass
	maxID   int64    // upper bound of vertex IDs once every addVertex ran

	failMu   sync.Mutex
	failures []string // the first few failed requests, for the reader
}

// noteFailure keeps the first few failures' reasons.
func (in *inputs) noteFailure(err error) {
	in.failMu.Lock()
	if len(in.failures) < 8 {
		in.failures = append(in.failures, err.Error())
	}
	in.failMu.Unlock()
}

// readOnly strips the write kinds from a mix for warm-up; an all-write mix
// warms up with neighbor reads.
func readOnly(mix []mixEntry) []mixEntry {
	var out []mixEntry
	total := 0
	for _, e := range mix {
		if classOf(e.kind) != cWrite {
			out = append(out, e)
			total += e.permille
		}
	}
	if total == 0 {
		return []mixEntry{{kNeighbors, 1000}}
	}
	out[len(out)-1].permille += 1000 - total
	return out
}

// genInputs builds the inputs of a run. The traced pass runs two shorter
// open-loop windows (recorders off, then on) instead of open + closed.
func genInputs(def *workloadDef, seed uint64, seconds float64, traced bool) *inputs {
	in := &inputs{def: def, seed: seed, seconds: seconds}
	in.m = genGraph(def.graph, seed)
	in.gen = newGenerator(in.m, seed, zipfExponent)
	g := in.gen
	in.warm = g.list(readOnly(def.mix), warmRequests, false)
	window := func(count int) *reqList {
		l := g.list(def.mix, count, def.newEdges)
		g.schedule(l, def.openRate)
		return l
	}
	if traced {
		in.base = window(int(def.openRate * tracedBaseShare * seconds))
		in.open = window(int(def.openRate * tracedOpenShare * seconds))
	} else {
		open, closed := def.windows(seconds)
		in.open = window(open)
		if closed > 0 {
			in.closed = g.list(def.mix, closed, def.newEdges)
		}
	}
	in.maxID = int64(in.m.n)
	for _, l := range []*reqList{in.open, in.closed, in.base} {
		if l == nil {
			continue
		}
		for _, o := range l.ops {
			if o.code == opAddVertex {
				in.maxID++
			}
		}
	}
	return in
}

// senders is how many goroutines drive a window: the two clients, or the
// one writer of an embedded workload.
func (in *inputs) senders() int {
	if in.def.embedded {
		return 1
	}
	return clients
}

func (in *inputs) executor(ctx context.Context, inst *instance, tr *tracer) executor {
	if in.def.embedded {
		return &embExec{in: in, g: inst.g, tr: tr, ctx: ctx}
	}
	return newHTTPExec(in, inst, tr)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Saturated bool                   `json:"saturated"`
	ListHash  string                 `json:"request_list_hash"`
	Counts    map[string]int         `json:"counts"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]metricValue `json:"info"` // ungated, printed for the reader
	SpanFile  string                 `json:"span_file,omitempty"`
	Failures  []string               `json:"first_failures,omitempty"`
}

func newResult(in *inputs, traced bool) *runResult {
	return &runResult{
		Workload: in.def.name, Seed: in.seed, Seconds: in.seconds, Traced: traced,
		ListHash: fmt.Sprintf("%016x", in.open.hash()),
		Counts:   map[string]int{}, Metrics: map[string]metricValue{}, Info: map[string]metricValue{},
	}
}

func (r *runResult) set(name string, v float64, unit string)  { r.Metrics[name] = metricValue{v, unit} }
func (r *runResult) info(name string, v float64, unit string) { r.Info[name] = metricValue{v, unit} }

// tally adds a window's requests to the attempted/failed totals.
func (r *runResult) tally(res windowResult) {
	r.Attempted += len(res.samples)
	for _, s := range res.samples {
		if !s.ran || !s.ok {
			r.Failed++
			r.Counts["failed_requests"]++
		}
	}
	if res.saturated {
		r.Saturated = true
	}
}

// classLatencies returns completion − due (open loop) of the requests of
// one class that ran, in due order.
func classLatencies(l *reqList, res windowResult, class int) []int64 {
	var out []int64
	for i, s := range res.samples {
		if s.ran && classOf(l.reqs[i].kind) == class {
			out = append(out, s.done-s.due)
		}
	}
	return out
}

// heapInuse is HeapInuse after two collections: the second sweeps what the
// first one's finalizers and deferred frees released.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// checkpointer issues POST /v1/checkpoint (or Graph.Checkpoint) from its
// own sender whenever a window passes one of the fixed request indices,
// so the two load senders keep their shape.
type checkpointer struct {
	ex    executor
	every int
	list  *reqList
	ch    chan struct{}
	wg    sync.WaitGroup
	n     int
	fails int
}

func startCheckpointer(ex executor, every int) *checkpointer {
	c := &checkpointer{ex: ex, every: every, ch: make(chan struct{}, 64)} // room for every trigger of a window, so senders never block on it
	c.list = &reqList{reqs: []req{{kind: kCheckpoint}}, acked: make([]bool, 1)}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for range c.ch {
			c.n++
			if !c.ex.exec(clients, c.list, 0) {
				c.fails++
			}
		}
	}()
	return c
}

func (c *checkpointer) onTake(i int) {
	if i > 0 && i%c.every == 0 {
		select {
		case c.ch <- struct{}{}:
		default:
		}
	}
}

func (c *checkpointer) stop() (n, fails int) {
	close(c.ch)
	c.wg.Wait()
	return c.n, c.fails
}

// window runs one list against the instance, with checkpoints at fixed
// indices when the workload asks for them. rate converts the workload's
// checkpoint period into a request-index stride.
func (in *inputs) window(ctx context.Context, ex executor, l *reqList, rate float64, res *runResult) windowResult {
	var onTake func(int)
	var ck *checkpointer
	if in.def.ckptEvery > 0 {
		ck = startCheckpointer(ex, max(1, int(rate*in.def.ckptEvery)))
		onTake = ck.onTake
	}
	w := runWindow(ctx, ex, l, in.senders(), onTake)
	if ck != nil {
		n, fails := ck.stop()
		res.Attempted += n
		res.Failed += fails
		res.Counts["checkpoints"] += n
		res.Counts["failed_checkpoints"] += fails
	}
	res.tally(w)
	return w
}

// loadWindow is window with the analytics loop beside it on htap_scan; it
// returns the sweeps completed while the window ran.
func (in *inputs) loadWindow(ctx context.Context, inst *instance, ex executor, l *reqList, rate float64, res *runResult) (windowResult, []sweepStat, error) {
	if !in.def.embedded {
		return in.window(ctx, ex, l, rate, res), nil, nil
	}
	scan := startScanner(ctx, in, inst.g)
	w := in.window(ctx, ex, l, rate, res)
	stats, err := scan.stop()
	if err != nil {
		return w, nil, fmt.Errorf("analytics: %w", err)
	}
	return w, stats, nil
}

// countView is the analytics view with every entry the engine streams
// counted where it is delivered: out-edges from ScanOut and, on BFS's
// bottom-up levels, in-neighbor candidates from ScanInCandidates. Sweeps
// run with one worker, so the count needs no synchronisation.
type countView struct {
	analytics.SnapshotView
	edges int64
}

func (c *countView) ScanOut(v int64, fn func(dst int64) bool) {
	c.SnapshotView.ScanOut(v, func(dst int64) bool {
		c.edges++
		return fn(dst)
	})
}

func (c *countView) ScanInCandidates(v int64, fn func(src int64) bool) {
	c.SnapshotView.ScanInCandidates(v, func(src int64) bool {
		c.edges++
		return fn(src)
	})
}

// sweepStat is one analytics sweep: PageRank, ConnComp and BFS on one
// pinned snapshot, single worker.
type sweepStat struct {
	edges             int64
	prNs, ccNs, bfsNs int64
}

// scanRate is entries streamed per second of time inside the sweeps.
func scanRate(stats []sweepStat) float64 {
	var edges, ns int64
	for _, s := range stats {
		edges += s.edges
		ns += s.prNs + s.ccNs + s.bfsNs
	}
	return ratio(float64(edges), float64(ns)/1e9)
}

func sweep(ctx context.Context, in *inputs, g *livegraph.Graph) (sweepStat, error) {
	snap, err := g.SnapshotCtx(ctx)
	if err != nil {
		return sweepStat{}, err
	}
	defer snap.Release()
	view := &countView{SnapshotView: analytics.SnapshotView{Snap: snap, Label: edgeLabel}}
	t0 := nowNs()
	analytics.PageRank(view, pageRankIters, 1)
	t1 := nowNs()
	analytics.ConnComp(view, 1)
	t2 := nowNs()
	analytics.BFS(view, int64(in.m.perm[bfsSource]), 1)
	t3 := nowNs()
	return sweepStat{edges: view.edges, prNs: t1 - t0, ccNs: t2 - t1, bfsNs: t3 - t2}, nil
}

// scanner loops sweeps until stopped (htap_scan's analytics goroutine).
type scanner struct {
	stopCh chan struct{}
	done   chan struct{}
	stats  []sweepStat
	err    error
}

func startScanner(ctx context.Context, in *inputs, g *livegraph.Graph) *scanner {
	s := &scanner{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stopCh:
				return
			default:
			}
			st, err := sweep(ctx, in, g)
			if err != nil {
				s.err = err
				return
			}
			s.stats = append(s.stats, st)
		}
	}()
	return s
}

// stop ends the loop after the sweep in flight and returns every sweep.
func (s *scanner) stop() ([]sweepStat, error) {
	close(s.stopCh)
	<-s.done
	return s.stats, s.err
}

// eachAckedOp calls fn with the index of every op of every acknowledged
// write request in lists (nil lists are skipped).
func eachAckedOp(lists []*reqList, fn func(l *reqList, j int)) {
	for _, l := range lists {
		if l == nil {
			continue
		}
		for i, q := range l.reqs {
			if l.acked[i] {
				for j := int(q.opFrom); j < int(q.opTo); j++ {
					fn(l, j)
				}
			}
		}
	}
}

// liveEdges is the edge count the acknowledged writes leave behind.
func liveEdges(m *model, lists ...*reqList) int {
	n := m.edges()
	eachAckedOp(lists, func(l *reqList, j int) {
		switch o := l.ops[j]; {
		case o.code == opUpsert && !m.has(int(o.src), int(o.dst)):
			n++
		case o.code == opDelete:
			n--
		}
	})
	return n
}

// userBytes is the payload of the acknowledged writes: identifiers plus
// property or vertex bytes.
func userBytes(lists ...*reqList) int64 {
	var n int64
	eachAckedOp(lists, func(l *reqList, j int) {
		switch l.ops[j].code {
		case opUpsert:
			n += 24 + propBytes
		case opDelete:
			n += 24
		case opAddVertex:
			n += vertexBytes
		}
	})
	return n
}

func ms(ns float64) float64 { return ns / 1e6 }

// runUntraced is the gated pass: repeated set-up, pre-window
// verification, open-loop window, closed-loop window where the workload
// has one, then the end-state measurements (memory, recovery).
func runUntraced(ctx context.Context, in *inputs, root string) (*runResult, error) {
	res := newResult(in, false)
	heap0 := heapInuse()

	var inst *instance
	setups := make([]float64, 0, setupRepeats)
	for rep := 0; rep < setupRepeats; rep++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		var took time.Duration
		var err error
		inst, took, err = setup(ctx, in, root, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { inst.close() }()
	res.set("setup_s", median(setups), "s")

	t0 := time.Now()
	checks, wrong, err := verify(ctx, in, inst.g)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	res.Attempted += checks
	res.Failed += wrong
	res.Counts["verify_checks"] = checks
	res.Counts["verify_wrong"] = wrong
	res.info("verify_s", time.Since(t0).Seconds(), "s")

	var diskBytes0 int64
	if inst.backend != nil {
		diskBytes0 = inst.backend.bytes()
	}
	ex := in.executor(ctx, inst, nil)
	open, sweeps, err := in.loadWindow(ctx, inst, ex, in.open, in.def.openRate, res)
	if err != nil {
		return nil, err
	}
	// Saturation rate: the back-to-back clients' requests per second, or,
	// where the saturated client is the analytics loop (htap_scan), the
	// entries it streamed per second inside the sweeps.
	if in.closed != nil {
		closed := in.window(ctx, ex, in.closed, in.def.closedRef, res)
		res.set("sat_rate_s", ratio(float64(len(closed.samples)-closed.unsent), float64(closed.elapsedNs)/1e9), "1/s")
		res.Counts["closed_requests"] = len(closed.samples)
		res.Counts["unsent"] += closed.unsent
		res.info("closed_window_s", float64(closed.elapsedNs)/1e9, "s")
	} else {
		res.set("sat_rate_s", scanRate(sweeps), "1/s")
		res.info("scan_medges_s", scanRate(sweeps)/1e6, "Medges/s")
		res.Counts["sweeps"] = len(sweeps)
	}

	lat := sortedCopy(classLatencies(in.open, open, in.def.headline))
	res.Counts["lat_samples"] = len(lat)
	if p50, ok := classQuantile(lat, 0.50); ok {
		res.set("lat_p50_ms", ms(p50), "ms")
	}
	if p90, ok := classQuantile(lat, 0.90); ok {
		res.info("lat_p90_ms", ms(p90), "ms") // not gated: see README, "End-to-end metrics"
	}
	var late []int64
	for _, s := range open.samples {
		if s.waited {
			late = append(late, s.sent-s.due)
		}
	}
	if v, ok := quantile(sortedCopy(late), 0.90); ok {
		res.info("gen_late_p90_ms", ms(float64(v)), "ms")
	}
	res.Counts["open_requests"] = len(open.samples)
	res.Counts["unsent"] += open.unsent
	res.info("open_window_s", float64(open.elapsedNs)/1e9, "s")

	// End state. Memory first: the engine's heap with the benchmark's own
	// window buffers released.
	ex, open, lat, late = nil, windowResult{}, nil, nil
	edges := liveEdges(in.m, in.open, in.closed)
	res.set("mem_bytes_per_edge", float64(heapInuse()-heap0)/float64(edges), "B")
	res.Counts["live_edges"] = edges

	if in.def.durable {
		if ub := userBytes(in.open, in.closed); ub > 0 {
			res.info("wal_bytes_per_user_byte", float64(inst.backend.bytes()-diskBytes0)/float64(ub), "ratio")
		}
		took, _, err := inst.reopen(ctx, in.def)
		if err != nil {
			return nil, err
		}
		res.info("recover_s", took.Seconds(), "s")
	}
	checks, wrong, err = verifyAcked(ctx, inst.g, in.open, in.closed)
	if err != nil {
		return nil, fmt.Errorf("replay acknowledged writes: %w", err)
	}
	res.Attempted += checks
	res.Failed += wrong
	res.Counts["ack_checks"] = checks
	res.Counts["ack_wrong"] = wrong

	res.Correct, res.Failures = res.Failed == 0, in.failures
	return res, nil
}
