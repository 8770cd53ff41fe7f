package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"livegraph"
)

// The traced pass: per-layer metrics, all taken from outside the engine —
// the three recorders of trace.go, spans around the public Go API in an
// embedded replay, probes through Reader on a pinned snapshot, and the
// engine's own instruments read by name from Graph.Obs().Snapshot().
// Nothing here is gated; a layer a workload does not touch reports 0.

var perLayer = []metricDef{
	// client: the benchmark's use of server.Client
	{"client.read_p99_ms", "ms", false},
	{"client.write_p99_ms", "ms", false},
	{"client.trav_p99_ms", "ms", false},
	{"client.p999_ms", "ms", false},
	{"client.lat_p90_ms", "ms", false},
	{"client.samples", "count", true},
	{"client.gen_late_p90_ms", "ms", false},
	{"client.svc_p50_ms", "ms", false},
	{"client.overhead_us_p50", "us", false},
	// server: handler spans
	{"server.nbr_handle_us_p50", "us", false},
	{"server.nbr_handle_us_p90", "us", false},
	{"server.tx_handle_us_p50", "us", false},
	{"server.tx_handle_us_p90", "us", false},
	{"server.trav_handle_us_p50", "us", false},
	{"server.trav_handle_us_p90", "us", false},
	{"server.resp_bytes_per_op", "B", false},
	{"server.nbr_self_us", "us", false},
	{"server.tx_self_us", "us", false},
	{"server.trav_self_us", "us", false},
	{"server.non2xx_frac", "ratio", false},
	// core: transactions and commit (embedded replay)
	{"core.begin_us_p50", "us", false},
	{"core.ops_us_p50", "us", false},
	{"core.commit_us_p50", "us", false},
	{"core.commit_us_p90", "us", false},
	{"core.commit_self_us_p50", "us", false},
	{"core.commit_disk_us_p50", "us", false},
	{"core.aborts_per_commit", "ratio", false},
	{"core.upgrades_per_kcommit", "ratio", false},
	// core: reads and traversals (embedded replay)
	{"core.snapshot_us_p50", "us", false},
	{"core.nbr_scan_us_p50", "us", false},
	{"core.trav_run_us_p50", "us", false},
	{"core.trav_run_us_p90", "us", false},
	{"core.trav_frontier_per_result", "ratio", false},
	{"core.trav_bottomup_frac", "ratio", false},
	{"core.trav_parallel_frac", "ratio", false},
	// core: checkpoint and recovery
	{"core.ckpt_ms_mean", "ms", false},
	{"core.ckpt_bytes_per_ckpt", "B", false},
	{"core.ckpt_delta_frac", "ratio", true},
	{"core.recover_ms", "ms", false},
	{"core.recover_mb_s", "MB/s", true},
	// tel: through Reader on a pinned snapshot
	{"tel.scan_ns_per_edge", "ns", false},
	{"tel.seek_ns", "ns", false},
	{"tel.getedge_ns", "ns", false},
	{"tel.bloom_skips_per_edge_write", "ratio", true},
	// mvcc
	{"mvcc.conflict_retry_frac", "ratio", false},
	// wal + disk: the recording backend
	{"disk.syncs_per_commit", "ratio", false},
	{"disk.sync_us_p50", "us", false},
	{"disk.sync_us_p90", "us", false},
	{"disk.write_calls_per_commit", "ratio", false},
	{"disk.write_bytes_per_commit", "B", false},
	{"disk.busy_frac", "ratio", false},
	{"disk.atomic_commit_ms_mean", "ms", false},
	{"disk.bytes_per_user_byte", "ratio", false},
	{"wal.bytes_per_user_byte", "ratio", false},
	// maint
	{"maint.busy_frac", "ratio", false},
	{"maint.passes", "count", false},
	{"maint.entries_dead_frac", "ratio", false},
	{"maint.bytes_reclaimed_per_s", "B/s", true},
	{"maint.dirty_pending_end", "count", false},
	{"maint.compact_now_ms", "ms", false},
	// storage
	{"storage.alloc_bytes_per_edge", "B", false},
	{"storage.blocks_per_vertex", "ratio", false},
	// analytics
	{"analytics.pagerank_iter_ms", "ms", false},
	{"analytics.conncomp_ms", "ms", false},
	{"analytics.bfs_ms", "ms", false},
	// runtime: the benchmark process
	{"runtime.gc_pause_ms_total", "ms", false},
	{"runtime.allocs_per_op", "count", false},
	{"runtime.heap_inuse_mb", "MB", false},
	// traced vs untraced headline p50 on the same instance
	{"trace_overhead_frac", "ratio", false},
}

// durations returns the sorted durations of spans.
func durations(sp []span) []int64 {
	d := make([]int64, len(sp))
	for i, s := range sp {
		d[i] = s.End - s.Start
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// pq is the q-quantile of sorted nanoseconds in the given unit, 0 when
// the sample cannot support it.
func pq(sorted []int64, q, unitNs float64) float64 {
	v, ok := quantile(sorted, q)
	if !ok {
		return 0
	}
	return float64(v) / unitNs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is one reading of everything cumulative the traced pass
// differences over a window.
type counters struct {
	reg                           map[string]float64
	logWrites, logBytes, logSyncs int64
	atomicBytes, atomicCommits    int64
	diskNs, atomicNs              int64
	pauseNs, mallocs, heapInuse   uint64
	at                            int64
}

func readCounters(inst *instance) counters {
	c := counters{reg: map[string]float64{}, at: nowNs()}
	for name, v := range inst.g.Obs().Snapshot() {
		if v.Hist == nil {
			c.reg[name] = v.Value
		}
	}
	if b := inst.backend; b != nil {
		c.logWrites, c.logBytes, c.logSyncs = b.logWrites.Load(), b.logBytes.Load(), b.logSyncs.Load()
		c.atomicBytes, c.atomicCommits = b.atomicBytes.Load(), b.atomicCommits.Load()
		c.atomicNs = b.atomicNs.Load()
		c.diskNs = b.logWriteNs.Load() + b.logSyncNs.Load() + c.atomicNs
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.pauseNs, c.mallocs, c.heapInuse = ms.PauseTotalNs, ms.Mallocs, ms.HeapInuse
	return c
}

// coveredNs is the length of the union of child intervals inside
// [start,end]; children must be sorted by Start.
func coveredNs(children []span, start, end int64) int64 {
	var covered, upto int64 = 0, start
	i := sort.Search(len(children), func(i int) bool { return children[i].Start >= start })
	for ; i < len(children) && children[i].Start < end; i++ {
		c := children[i]
		if c.End > end {
			continue // not contained: belongs to something else
		}
		lo := max(c.Start, upto)
		if c.End > lo {
			covered += c.End - lo
			upto = c.End
		}
	}
	return covered
}

// routes pairs a server route (also the embedded replay's span name after
// "core.") with its key in metric names.
var routes = []struct{ route, key string }{{"neighbors", "nbr"}, {"tx", "tx"}, {"traverse", "trav"}}

func runTraced(ctx context.Context, in *inputs, root, outDir string) (*runResult, error) {
	res := newResult(in, true)
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit)
	}
	set := func(name string, v float64) { res.Metrics[name] = metricValue{v, res.Metrics[name].Unit} }
	tr := &tracer{}

	// Stage 1: the workload as the gated pass runs it, recorders installed.
	inst, _, err := setup(ctx, in, root, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { inst.close() }()
	checks, wrong, err := verify(ctx, in, inst.g)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	res.Attempted += checks
	res.Failed += wrong
	ex := in.executor(ctx, inst, tr)

	base, _, err := in.loadWindow(ctx, inst, ex, in.base, in.def.openRate, res) // recorders off
	if err != nil {
		return nil, err
	}
	c0 := readCounters(inst)
	tr.begin("load")
	win, sweeps, err := in.loadWindow(ctx, inst, ex, in.open, in.def.openRate, res)
	tr.end()
	if err != nil {
		return nil, err
	}
	c1 := readCounters(inst)
	delta := func(name string) float64 { return c1.reg[name] - c0.reg[name] }
	windowS := float64(c1.at-c0.at) / 1e9

	// client
	var all, late, svc []int64
	byClass := [numClasses][]int64{}
	for i, s := range win.samples {
		if !s.ran {
			continue
		}
		cl := classOf(in.open.reqs[i].kind)
		byClass[cl] = append(byClass[cl], s.done-s.due)
		all = append(all, s.done-s.due)
		if s.waited {
			late = append(late, s.sent-s.due)
		}
		if cl == in.def.headline {
			svc = append(svc, s.done-s.sent)
		}
	}
	set("client.read_p99_ms", pq(sortedCopy(byClass[cRead]), 0.99, 1e6))
	set("client.write_p99_ms", pq(sortedCopy(byClass[cWrite]), 0.99, 1e6))
	set("client.trav_p99_ms", pq(sortedCopy(byClass[cTrav]), 0.99, 1e6))
	set("client.p999_ms", pq(sortedCopy(all), 0.999, 1e6))
	set("client.samples", float64(len(all)))
	set("client.gen_late_p90_ms", pq(sortedCopy(late), 0.90, 1e6))
	set("client.svc_p50_ms", pq(sortedCopy(svc), 0.50, 1e6))
	set("client.lat_p90_ms", pq(sortedCopy(byClass[in.def.headline]), 0.90, 1e6))
	tracedP50 := pq(sortedCopy(byClass[in.def.headline]), 0.50, 1e6)
	baseP50 := pq(sortedCopy(classLatencies(in.base, base, in.def.headline)), 0.50, 1e6)
	if baseP50 > 0 {
		set("trace_overhead_frac", tracedP50/baseP50-1)
	}

	// server: handler spans, and client overhead against their parents.
	load := tr.stageSpans("load")
	handle := map[string][]int64{}
	clientDur := map[uint64]int64{}
	for name, sp := range load {
		if len(name) > 7 && name[:7] == "client." {
			for _, s := range sp {
				clientDur[s.ID] = s.End - s.Start
			}
		}
	}
	var overhead []int64
	var respBytes, non2xx, served int64
	for name, sp := range load {
		if len(name) <= 7 || name[:7] != "server." {
			continue
		}
		handle[name[7:]] = durations(sp)
		for _, s := range sp {
			served++
			respBytes += s.Bytes
			if s.Status < 200 || s.Status > 299 {
				non2xx++
			}
			if d, ok := clientDur[s.Parent]; ok {
				overhead = append(overhead, d-(s.End-s.Start))
			}
		}
	}
	for _, r := range routes {
		set("server."+r.key+"_handle_us_p50", pq(handle[r.route], 0.50, 1e3))
		set("server."+r.key+"_handle_us_p90", pq(handle[r.route], 0.90, 1e3))
	}
	set("server.resp_bytes_per_op", ratio(float64(respBytes), float64(served)))
	set("server.non2xx_frac", ratio(float64(non2xx), float64(served)))
	set("client.overhead_us_p50", pq(sortedCopy(overhead), 0.50, 1e3))

	// engine counters over the traced window
	commits := delta("lg_core_commits_total")
	set("core.aborts_per_commit", ratio(delta("lg_core_aborts_total"), commits))
	set("core.upgrades_per_kcommit", 1000*ratio(delta("lg_core_upgrades_total"), commits))
	writes, edgeWrites := 0, 0
	for i, q := range in.open.reqs {
		if classOf(q.kind) == cWrite && win.samples[i].ran {
			writes++
			for _, o := range in.open.ops[q.opFrom:q.opTo] {
				if o.code != opAddVertex {
					edgeWrites++
				}
			}
		}
	}
	set("tel.bloom_skips_per_edge_write", ratio(delta("lg_core_bloom_skips_total"), float64(edgeWrites)))
	conflicts := delta("lg_core_aborts_total")
	for _, s := range load["server.tx"] {
		if s.Status == 409 {
			conflicts++
		}
	}
	set("mvcc.conflict_retry_frac", ratio(conflicts, float64(writes)))
	ckpts := delta("lg_ckpt_fulls_total") + delta("lg_ckpt_deltas_total")
	set("core.ckpt_delta_frac", ratio(delta("lg_ckpt_deltas_total"), ckpts))
	set("core.ckpt_bytes_per_ckpt", ratio(float64(c1.atomicBytes-c0.atomicBytes), ckpts))
	// A window holds a handful of checkpoints: too few for a percentile.
	var ckptNs int64
	for _, s := range load["server.checkpoint"] {
		ckptNs += s.End - s.Start
	}
	set("core.ckpt_ms_mean", ratio(float64(ckptNs)/1e6, float64(len(load["server.checkpoint"]))))

	// wal + disk
	syncs := durations(load["disk.sync"])
	set("disk.syncs_per_commit", ratio(float64(c1.logSyncs-c0.logSyncs), commits))
	set("disk.sync_us_p50", pq(syncs, 0.50, 1e3))
	set("disk.sync_us_p90", pq(syncs, 0.90, 1e3))
	set("disk.write_calls_per_commit", ratio(float64(c1.logWrites-c0.logWrites), commits))
	set("disk.write_bytes_per_commit", ratio(float64(c1.logBytes-c0.logBytes), commits))
	set("disk.busy_frac", ratio(float64(c1.diskNs-c0.diskNs)/1e9, windowS))
	set("disk.atomic_commit_ms_mean", ratio(float64(c1.atomicNs-c0.atomicNs)/1e6, float64(c1.atomicCommits-c0.atomicCommits)))
	ub := float64(userBytes(in.open))
	set("disk.bytes_per_user_byte", ratio(float64(c1.logBytes-c0.logBytes+c1.atomicBytes-c0.atomicBytes), ub))
	set("wal.bytes_per_user_byte", ratio(delta("lg_wal_appended_bytes_total"), ub))

	// maint
	set("maint.busy_frac", ratio(delta("lg_maint_pass_seconds_total"), windowS))
	set("maint.passes", delta("lg_maint_passes_total"))
	set("maint.entries_dead_frac", ratio(delta("lg_maint_entries_dead_total"), delta("lg_maint_entries_scanned_total")))
	set("maint.bytes_reclaimed_per_s", ratio(delta("lg_maint_bytes_reclaimed_total"), windowS))
	set("maint.dirty_pending_end", c1.reg["lg_maint_dirty_pending"])

	// runtime
	set("runtime.gc_pause_ms_total", float64(c1.pauseNs-c0.pauseNs)/1e6)
	set("runtime.allocs_per_op", ratio(float64(c1.mallocs-c0.mallocs), float64(len(all))))
	set("runtime.heap_inuse_mb", float64(c1.heapInuse)/(1<<20))

	// storage
	edges := liveEdges(in.m, in.base, in.open)
	set("storage.alloc_bytes_per_edge", ratio(c1.reg["lg_alloc_bytes"], float64(edges)))
	set("storage.blocks_per_vertex", ratio(c1.reg["lg_alloc_blocks"], c1.reg["lg_core_vertices"]))

	// Quiesced probes on the end state.
	t0 := time.Now()
	inst.g.CompactNow()
	set("maint.compact_now_ms", float64(time.Since(t0))/1e6)
	if err := telProbes(ctx, in, inst.g, set); err != nil {
		return nil, err
	}
	var pr, cc, bfs []float64
	for _, s := range sweeps {
		pr = append(pr, float64(s.prNs)/pageRankIters/1e6)
		cc = append(cc, float64(s.ccNs)/1e6)
		bfs = append(bfs, float64(s.bfsNs)/1e6)
	}
	set("analytics.pagerank_iter_ms", median(pr))
	set("analytics.conncomp_ms", median(cc))
	set("analytics.bfs_ms", median(bfs))

	if in.def.durable {
		took, size, err := inst.reopen(ctx, in.def)
		if err != nil {
			return nil, err
		}
		set("core.recover_ms", float64(took)/1e6)
		set("core.recover_mb_s", float64(size)/(1<<20)/took.Seconds())
	}
	checks, wrong, err = verifyAcked(ctx, inst.g, in.base, in.open)
	if err != nil {
		return nil, fmt.Errorf("replay acknowledged writes: %w", err)
	}
	res.Attempted += checks
	res.Failed += wrong
	inst.close()

	// Stage 2: the traced window's list replayed by one client straight on
	// the Go API of a fresh instance, one span around each engine call.
	if err := embeddedStage(ctx, in, root, tr, res, set); err != nil {
		return nil, err
	}
	emb := tr.stageSpans("embedded")
	for _, r := range routes {
		h, c := pq(handle[r.route], 0.50, 1e3), pq(durations(emb["core."+r.route]), 0.50, 1e3)
		if h > 0 && c > 0 {
			set("server."+r.key+"_self_us", h-c)
		}
	}

	res.SpanFile, err = tr.writeFile(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", in.def.name, in.seed))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.Counts["spans"] = len(tr.spans)
	res.Correct, res.Failures = res.Failed == 0, in.failures
	return res, nil
}

// telProbes times the TEL through the public Reader on one pinned
// snapshot: a full sequential pass, seek plus first entry, and point edge
// lookups (the two quantities of the paper's Figure 1 plus the seek).
func telProbes(ctx context.Context, in *inputs, g *livegraph.Graph, set func(string, float64)) error {
	snap, err := g.SnapshotCtx(ctx)
	if err != nil {
		return err
	}
	defer snap.Release()
	var sum, edges int64
	t0 := nowNs()
	for v := 0; v < in.m.n; v++ {
		it := snap.Neighbors(livegraph.VertexID(v), edgeLabel)
		for it.Next() {
			sum += int64(it.Dst())
			edges++
		}
	}
	set("tel.scan_ns_per_edge", ratio(float64(nowNs()-t0), float64(edges)))

	const probes = 20000
	r := newRng(in.seed ^ 0x510E527F)
	srcs := make([]int32, probes)
	dsts := make([]int32, probes)
	for i := range srcs {
		srcs[i] = in.gen.hotPerm[in.gen.hot.draw(r)]
		out := in.m.out(int(srcs[i]))
		dsts[i] = out[r.intn(len(out))]
	}
	t0 = nowNs()
	for _, s := range srcs {
		it := snap.Neighbors(livegraph.VertexID(s), edgeLabel)
		if it.Next() {
			sum += int64(it.Dst())
		}
	}
	set("tel.seek_ns", float64(nowNs()-t0)/probes)
	t0 = nowNs()
	for i, s := range srcs {
		if p, err := snap.GetEdge(livegraph.VertexID(s), edgeLabel, livegraph.VertexID(dsts[i])); err == nil {
			sum += int64(len(p))
		}
	}
	set("tel.getedge_ns", float64(nowNs()-t0)/probes)
	if sum == 0 {
		return fmt.Errorf("tel probes read nothing")
	}
	return nil
}

// embeddedStage replays in.open with one client on a fresh instance and
// derives the core.* metrics from its spans.
func embeddedStage(ctx context.Context, in *inputs, root string, tr *tracer, res *runResult, set func(string, float64)) error {
	def := *in.def
	def.embedded = true // no server: straight on the Go API
	in2 := inputs{def: &def, seed: in.seed, seconds: in.seconds, m: in.m, gen: in.gen, warm: in.warm, open: in.open, maxID: in.maxID}
	inst, _, err := setup(ctx, &in2, root, tr)
	if err != nil {
		return fmt.Errorf("set-up (embedded stage): %w", err)
	}
	defer inst.close()
	l := &reqList{reqs: in.open.reqs, ops: in.open.ops, acked: make([]bool, len(in.open.reqs)), vids: make([]int64, len(in.open.ops))}
	ex := &embExec{in: &in2, g: inst.g, tr: tr, ctx: ctx}
	ckpt := &reqList{reqs: []req{{kind: kCheckpoint}}, acked: make([]bool, 1)}
	stride := int(def.openRate * def.ckptEvery)
	tr.begin("embedded")
	for i := range l.reqs {
		res.Attempted++
		if stride > 0 && i > 0 && i%stride == 0 && !ex.exec(0, ckpt, 0) {
			res.Failed++
		}
		if !ex.exec(0, l, i) {
			res.Failed++
		}
	}
	tr.end()
	emb := tr.stageSpans("embedded")

	set("core.begin_us_p50", pq(durations(emb["core.begin"]), 0.50, 1e3))
	set("core.ops_us_p50", pq(durations(emb["core.ops"]), 0.50, 1e3))
	commits := emb["core.commit"]
	set("core.commit_us_p50", pq(durations(commits), 0.50, 1e3))
	set("core.commit_us_p90", pq(durations(commits), 0.90, 1e3))
	// With one client every WAL write and sync lies inside the commit that
	// caused it, so containment in time gives the nesting.
	children := append(append([]span(nil), emb["disk.write"]...), emb["disk.sync"]...)
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	self := make([]int64, len(commits))
	nested := make([]int64, len(commits))
	for i, c := range commits {
		nested[i] = coveredNs(children, c.Start, c.End)
		self[i] = c.End - c.Start - nested[i]
	}
	set("core.commit_self_us_p50", pq(sortedCopy(self), 0.50, 1e3))
	set("core.commit_disk_us_p50", pq(sortedCopy(nested), 0.50, 1e3))
	set("core.snapshot_us_p50", pq(durations(emb["core.snapshot"]), 0.50, 1e3))
	set("core.nbr_scan_us_p50", pq(durations(emb["core.nbr_scan"]), 0.50, 1e3))
	set("core.trav_run_us_p50", pq(durations(emb["core.trav_run"]), 0.50, 1e3))
	set("core.trav_run_us_p90", pq(durations(emb["core.trav_run"]), 0.90, 1e3))
	var frontier, results, hops, bottomUp, par float64
	for _, e := range ex.explains {
		frontier += float64(e.frontier)
		results += float64(e.results)
		hops += float64(e.hops)
		bottomUp += float64(e.bottomUp)
		par += float64(e.par)
	}
	set("core.trav_frontier_per_result", ratio(frontier, results))
	set("core.trav_bottomup_frac", ratio(bottomUp, hops))
	set("core.trav_parallel_frac", ratio(par, hops))
	res.Counts["explained"] = len(ex.explains)
	return nil
}
