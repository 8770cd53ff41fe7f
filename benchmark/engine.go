package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"livegraph"
	"livegraph/internal/analytics"
	"livegraph/internal/disk"
	"livegraph/internal/server"
)

const edgeLabel = 0

// instance is one engine under test: a graph opened with default Options
// (plus Dir and the real disk backend when durable) and, for the HTTP
// workloads, server.New(g) on a loopback listener in this process.
type instance struct {
	g       *livegraph.Graph
	dir     string
	backend *recBackend // non-nil on a durable graph
	srv     *http.Server
	srvDone chan struct{}
	tp      *http.Transport
	base    string
}

func baseProps(src, dst int32) []byte {
	return edgeProps(mix(uint64(src)<<32|uint64(uint32(dst)), 0xBA5E))
}

// openGraph opens (or reopens) the workload's graph in dir.
func openGraph(def *workloadDef, dir string, tr *tracer) (*livegraph.Graph, *recBackend, error) {
	var opts livegraph.Options
	var rb *recBackend
	if def.durable {
		// The wrapper counts bytes in both passes (a few atomic adds per
		// write and sync); it records spans only while a tracer is on.
		rb = &recBackend{Backend: disk.NewReal(), tr: tr}
		opts.Dir, opts.Backend = dir, rb
	}
	g, err := livegraph.Open(opts)
	return g, rb, err
}

// setup opens the graph, bulk-loads the model, takes the base checkpoint
// (durable), starts the server and warms it with read-only requests. Its
// wall time is one setup_s observation.
func setup(ctx context.Context, in *inputs, root string, tr *tracer) (*instance, time.Duration, error) {
	t0 := time.Now()
	inst := &instance{}
	if in.def.durable {
		dir, err := os.MkdirTemp(root, "data-")
		if err != nil {
			return nil, 0, err
		}
		inst.dir = dir
	}
	g, rb, err := openGraph(in.def, inst.dir, tr)
	if err != nil {
		return nil, 0, err
	}
	inst.g, inst.backend = g, rb
	if err := bulkLoad(ctx, g, in.m); err != nil {
		inst.close()
		return nil, 0, err
	}
	if in.def.durable {
		if err := g.Checkpoint(); err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("base checkpoint: %w", err)
		}
	}
	if !in.def.embedded {
		if err := inst.serve(tr); err != nil {
			inst.close()
			return nil, 0, err
		}
	}
	ex := in.executor(ctx, inst, nil)
	res := runWindow(ctx, ex, in.warm, in.senders(), nil)
	for _, s := range res.samples {
		if !s.ok {
			inst.close()
			return nil, 0, errors.New("warm-up request failed")
		}
	}
	return inst, time.Since(t0), nil
}

// serve starts server.New(g) on a loopback listener.
func (inst *instance) serve(tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = server.New(inst.g)
	if tr != nil {
		h = &recHandler{next: h, tr: tr}
	}
	inst.srv = &http.Server{Handler: h}
	inst.srvDone = make(chan struct{})
	go func() {
		defer close(inst.srvDone)
		inst.srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	inst.base = "http://" + ln.Addr().String()
	inst.tp = &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	return nil
}

// close stops the server, closes the graph and removes its directory.
func (inst *instance) close() {
	if inst.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		inst.tp.CloseIdleConnections()
		if err := inst.srv.Shutdown(ctx); err != nil {
			inst.srv.Close()
		}
		cancel()
		<-inst.srvDone
		inst.srv = nil
	}
	if inst.g != nil {
		inst.g.Close()
		inst.g = nil
	}
	if inst.dir != "" {
		os.RemoveAll(inst.dir)
	}
}

// reopen closes the graph and opens its directory again — checkpoint
// chain plus WAL tail — until a first read succeeds, and returns how long
// that took and how many bytes the directory held. The process is not
// killed, so bytes the engine never flushed still sit in the OS cache (see
// README).
func (inst *instance) reopen(ctx context.Context, def *workloadDef) (time.Duration, int64, error) {
	dir := inst.dir
	inst.dir = "" // keep the directory past close
	inst.close()
	inst.dir = dir
	size := dirBytes(dir)
	t0 := time.Now()
	g, _, err := openGraph(def, dir, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	inst.g = g
	err = livegraph.ViewCtx(ctx, g, func(tx *livegraph.Tx) error {
		_, err := tx.GetVertex(0)
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("first read after reopen: %w", err)
	}
	return time.Since(t0), size, nil
}

// bulkLoad inserts the model: vertices in ID order, then every source's
// edges in model order.
func bulkLoad(ctx context.Context, g *livegraph.Graph, m *model) error {
	for lo := 0; lo < m.n; lo += loadBatch {
		hi := min(lo+loadBatch, m.n)
		err := livegraph.UpdateCtx(ctx, g, 0, func(tx *livegraph.Tx) error {
			for v := lo; v < hi; v++ {
				id, err := tx.AddVertex(vertexData(int64(v)))
				if err != nil {
					return err
				}
				if int(id) != v {
					return fmt.Errorf("vertex %d got ID %d", v, id)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load vertices: %w", err)
		}
	}
	// One loader: two would hold a few hundred striped vertex locks each
	// and deadlock on stripe collisions until the lock timeout.
	for v, batch := 0, 0; v < m.n; batch++ {
		if batch%compactEvery == compactEvery-1 {
			g.CompactNow()
		}
		from, n := v, 0
		for v < m.n && n < loadBatch {
			n += m.deg(v)
			v++
		}
		to := v
		err := livegraph.UpdateCtx(ctx, g, 0, func(tx *livegraph.Tx) error {
			for s := from; s < to; s++ {
				for _, d := range m.out(s) {
					if err := tx.InsertEdge(livegraph.VertexID(s), edgeLabel, livegraph.VertexID(d), baseProps(int32(s), d)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load edges: %w", err)
		}
	}
	return nil
}

// verify compares the quiesced graph with the reference model: neighbor
// lists, degrees and two-hop result sets of seeded sources, the component
// count, BFS distances and PageRank mass. It returns the checks made and
// the ones that failed.
func verify(ctx context.Context, in *inputs, g *livegraph.Graph) (checks, wrong int, err error) {
	m := in.m
	r := newRng(in.seed ^ 0x3C6EF372)
	snap, err := g.SnapshotCtx(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer snap.Release()
	check := func(ok bool) {
		checks++
		if !ok {
			wrong++
		}
	}
	for i := 0; i < verifySources; i++ {
		src := int32(r.intn(m.n)) // half uniform, half by request popularity
		if i%2 == 1 {
			src = in.gen.hotPerm[in.gen.hot.draw(r)]
		}
		want := m.out(int(src))
		// Neighbors scans newest first: the model list reversed.
		it := snap.Neighbors(livegraph.VertexID(src), edgeLabel)
		k := len(want)
		same := true
		for it.Next() {
			k--
			if k < 0 || int32(it.Dst()) != want[k] || !bytes.Equal(it.Props(), baseProps(src, want[k])) {
				same = false
				break
			}
		}
		check(same && k == 0)
		check(snap.Degree(livegraph.VertexID(src), edgeLabel) == len(want))
		data, gerr := snap.GetVertex(livegraph.VertexID(src))
		check(gerr == nil && bytes.Equal(data, vertexData(int64(src))))
		for _, dedup := range []bool{true, false} {
			t := livegraph.Traverse(livegraph.VertexID(src)).Out(edgeLabel).Out(edgeLabel)
			if dedup {
				t.Dedup()
			}
			got, terr := t.Run(ctx, snap)
			if terr != nil {
				return checks, wrong, terr
			}
			check(sameMultiset(got, m.twoHop(int(src), dedup, 0, math.MaxInt32)))
		}
	}
	view := analytics.SnapshotView{Snap: snap, Label: edgeLabel}
	labels := analytics.ConnComp(view, 1)
	check(analytics.NumComponents(labels, nil) == m.components())
	bsrc := int(m.perm[bfsSource])
	dist := analytics.BFS(view, int64(bsrc), 1)
	wantDist := m.bfs(bsrc)
	same := len(dist) == len(wantDist)
	for i := 0; same && i < len(dist); i++ {
		same = dist[i] == wantDist[i]
	}
	check(same)
	mass := 0.0
	for _, x := range analytics.PageRank(view, pageRankIters, 1) {
		mass += x
	}
	check(math.Abs(mass-1) <= 1e-6)
	return checks, wrong, nil
}

func sameMultiset(got []livegraph.VertexID, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	g := make([]int64, len(got))
	for i, v := range got {
		g[i] = int64(v)
	}
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

// sender is one client's private state.
type sender struct {
	c     *server.Client
	cur   atomic.Uint64 // root span ID of the request in flight (traced pass)
	stamp []int32       // duplicate detection: stamp[v] == seq means seen in this response
	seq   int32
}

// dupOrOutOfRange reports whether ids repeats a vertex or leaves [0,max).
func (s *sender) dupOrOutOfRange(ids []int64, max int64, checkDup bool) bool {
	s.seq++
	for _, v := range ids {
		if v < 0 || v >= max {
			return true
		}
		if checkDup {
			if s.stamp[v] == s.seq {
				return true
			}
			s.stamp[v] = s.seq
		}
	}
	return false
}

// httpExec sends requests through server.Client and checks each answer.
// Inside a window only schedule-independent facts are checked; sources no
// request writes additionally have exactly known answers.
type httpExec struct {
	in      *inputs
	tr      *tracer
	senders []*sender
}

func newHTTPExec(in *inputs, inst *instance, tr *tracer) *httpExec {
	ex := &httpExec{in: in, tr: tr}
	for w := 0; w < clients+1; w++ { // the extra sender issues checkpoints
		s := &sender{stamp: make([]int32, in.maxID)}
		s.c = server.NewClient(inst.base)
		s.c.HC = &http.Client{Transport: &spanTransport{next: inst.tp, cur: &s.cur}}
		ex.senders = append(ex.senders, s)
	}
	return ex
}

func toServerOps(ops []wop) []server.Op {
	out := make([]server.Op, len(ops))
	for i, o := range ops {
		switch o.code {
		case opUpsert:
			out[i] = server.Op{Op: "upsertEdge", Src: int64(o.src), Label: edgeLabel, Dst: int64(o.dst), Props: edgeProps(o.seed)}
		case opDelete:
			out[i] = server.Op{Op: "deleteEdge", Src: int64(o.src), Label: edgeLabel, Dst: int64(o.dst)}
		case opAddVertex:
			out[i] = server.Op{Op: "addVertex", Data: vertexPayload(o.seed)}
		}
	}
	return out
}

func (ex *httpExec) exec(w int, l *reqList, i int) bool {
	q := &l.reqs[i]
	s := ex.senders[w]
	var t0 int64
	traced := ex.tr.enabled()
	if traced {
		s.cur.Store(ex.tr.newID())
		t0 = nowNs()
	}
	err := ex.call(s, l, i)
	if traced {
		ex.tr.add(span{ID: s.cur.Load(), Name: "client." + kindNames[q.kind], Start: t0, End: nowNs(), Req: i})
		s.cur.Store(0)
	}
	if err != nil {
		ex.in.noteFailure(fmt.Errorf("%s %d: %w", kindNames[q.kind], q.src, err))
	}
	return err == nil
}

func wrongf(format string, args ...any) error {
	return fmt.Errorf("wrong answer: "+format, args...)
}

// call performs one request and returns nil when the answer is right.
func (ex *httpExec) call(s *sender, l *reqList, i int) error {
	q := &l.reqs[i]
	in := ex.in
	src := int64(q.src)
	static := !in.gen.written[q.src]
	switch q.kind {
	case kNeighbors:
		out, err := s.c.Neighbors(src, edgeLabel, neighborLimit)
		if err != nil {
			return err
		}
		if len(out) > neighborLimit {
			return wrongf("%d neighbors past the limit", len(out))
		}
		s.seq++
		for _, nb := range out {
			if nb.Dst < 0 || nb.Dst >= in.maxID || s.stamp[nb.Dst] == s.seq || len(nb.Props) != propBytes {
				return wrongf("neighbor %d out of range, repeated or with %d property bytes", nb.Dst, len(nb.Props))
			}
			s.stamp[nb.Dst] = s.seq
		}
		if want := min(neighborLimit, in.m.deg(int(q.src))); static && len(out) != want {
			return wrongf("%d neighbors, want %d", len(out), want)
		}
	case kVertex:
		data, err := s.c.Vertex(src)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, vertexData(src)) {
			return wrongf("vertex payload")
		}
	case kDegree:
		d, err := s.c.Degree(src, edgeLabel)
		if err != nil {
			return err
		}
		if d < 0 || (static && d != in.m.deg(int(q.src))) {
			return wrongf("degree %d, want %d", d, in.m.deg(int(q.src)))
		}
	case kEdge:
		props, err := s.c.Edge(src, edgeLabel, int64(q.dst))
		if err != nil {
			return err
		}
		_, touched := in.gen.touched[pairKey(q.src, q.dst)]
		if len(props) != propBytes || (!touched && !bytes.Equal(props, baseProps(q.src, q.dst))) {
			return wrongf("edge properties")
		}
	case kUpsert, kTx:
		ops := l.ops[q.opFrom:q.opTo]
		ids, err := s.c.Tx(toServerOps(ops)...)
		if err != nil {
			return err
		}
		k := 0
		for j, o := range ops {
			if o.code == opAddVertex {
				if k >= len(ids) {
					return wrongf("%d vertex IDs for more addVertex ops", len(ids))
				}
				l.vids[int(q.opFrom)+j] = ids[k]
				k++
			}
		}
		if k != len(ids) {
			return wrongf("%d vertex IDs for %d addVertex ops", len(ids), k)
		}
		l.acked[i] = true
	case kTrav2, kTrav2R, kTrav3:
		opt := server.TraverseOptions{}
		hops := []int64{edgeLabel, edgeLabel}
		switch q.kind {
		case kTrav2:
			opt.Dedup = true
		case kTrav2R:
			opt.DstRangeSet, opt.MinDst, opt.MaxDst = true, int64(q.lo), int64(q.hi)
		case kTrav3:
			hops = append(hops, edgeLabel)
			opt.Limit = trav3Limit
		}
		floor := s.c.LastEpoch()
		ids, epoch, err := s.c.Traverse(src, hops, &opt)
		if err != nil {
			return err
		}
		if epoch < floor {
			return wrongf("epoch %d behind the acknowledged %d", epoch, floor)
		}
		if s.dupOrOutOfRange(ids, in.maxID, opt.Dedup) {
			return wrongf("result repeats a vertex or leaves the ID range")
		}
		if q.kind == kTrav3 && len(ids) > trav3Limit {
			return wrongf("%d results past the limit", len(ids))
		}
		if q.kind == kTrav2R {
			for _, v := range ids {
				if v < int64(q.lo) || v > int64(q.hi) {
					return wrongf("vertex %d outside [%d,%d]", v, q.lo, q.hi)
				}
			}
		}
	case kCheckpoint:
		return s.c.Checkpoint()
	}
	return nil
}

// embExec performs the same requests straight on the public Go API with
// one span around each engine call (the traced pass's embedded stage) or
// no spans at all (htap_scan's writer). It serves one sender: explains and
// nTrav are not synchronised.
type embExec struct {
	in  *inputs
	g   *livegraph.Graph
	tr  *tracer
	ctx context.Context

	explains []explainStat // one per explained traversal
	nTrav    int
}

// explainStat is what RunExplain attributes to one traversal.
type explainStat struct {
	frontier, results   int
	hops, bottomUp, par int
}

func (ex *embExec) spanned(name string, i int, fn func()) {
	if !ex.tr.enabled() {
		fn()
		return
	}
	t0 := nowNs()
	fn()
	ex.tr.add(span{Name: name, Start: t0, End: nowNs(), Req: i})
}

func (ex *embExec) exec(w int, l *reqList, i int) bool {
	q := &l.reqs[i]
	ok := false
	switch classOf(q.kind) {
	case cRead:
		ex.spanned("core."+kindNames[q.kind], i, func() { ok = ex.read(q, i) })
	case cWrite:
		ex.spanned("core.tx", i, func() { ok = ex.write(l, i) })
		if ok {
			l.acked[i] = true
		}
	case cTrav:
		ex.spanned("core.traverse", i, func() { ok = ex.traverse(q, i) })
	case cAdmin:
		ex.spanned("core.checkpoint", i, func() { ok = ex.g.Checkpoint() == nil })
	}
	return ok
}

func (ex *embExec) read(q *req, i int) bool {
	var tx *livegraph.Tx
	var err error
	ex.spanned("core.begin_read", i, func() { tx, err = ex.g.BeginReadCtx(ex.ctx) })
	if err != nil {
		return false
	}
	defer tx.Commit()
	src := livegraph.VertexID(q.src)
	static := !ex.in.gen.written[q.src]
	switch q.kind {
	case kNeighbors:
		n := 0
		var sum int64
		ex.spanned("core.nbr_scan", i, func() {
			it := tx.Neighbors(src, edgeLabel)
			for n < neighborLimit && it.Next() {
				sum += int64(it.Dst()) + int64(len(it.Props()))
				n++
			}
		})
		return !static || n == min(neighborLimit, ex.in.m.deg(int(q.src)))
	case kVertex:
		data, err := tx.GetVertex(src)
		return err == nil && bytes.Equal(data, vertexData(int64(q.src)))
	case kDegree:
		d := tx.Degree(src, edgeLabel)
		return !static || d == ex.in.m.deg(int(q.src))
	case kEdge:
		props, err := tx.GetEdge(src, edgeLabel, livegraph.VertexID(q.dst))
		return err == nil && len(props) == propBytes
	}
	return false
}

func (ex *embExec) write(l *reqList, i int) bool {
	q := &l.reqs[i]
	ops := l.ops[q.opFrom:q.opTo]
	for attempt := 0; attempt <= 16; attempt++ {
		var tx *livegraph.Tx
		var err error
		ex.spanned("core.begin", i, func() { tx, err = ex.g.BeginCtx(ex.ctx) })
		if err != nil {
			return false
		}
		ex.spanned("core.ops", i, func() { err = ex.apply(tx, l, int(q.opFrom), ops) })
		if err != nil {
			tx.Abort()
			if livegraph.IsRetryable(err) {
				continue
			}
			return false
		}
		ex.spanned("core.commit", i, func() { err = tx.CommitCtx(ex.ctx) })
		if err == nil {
			return true
		}
		if !livegraph.IsRetryable(err) {
			return false
		}
	}
	return false
}

func (ex *embExec) apply(tx *livegraph.Tx, l *reqList, base int, ops []wop) error {
	for j, o := range ops {
		src, dst := livegraph.VertexID(o.src), livegraph.VertexID(o.dst)
		switch o.code {
		case opUpsert:
			if err := tx.AddEdge(src, edgeLabel, dst, edgeProps(o.seed)); err != nil {
				return err
			}
		case opDelete:
			if err := tx.DeleteEdge(src, edgeLabel, dst); err != nil && !errors.Is(err, livegraph.ErrNotFound) {
				return err
			}
		case opAddVertex:
			id, err := tx.AddVertex(vertexPayload(o.seed))
			if err != nil {
				return err
			}
			l.vids[base+j] = int64(id)
		}
	}
	return nil
}

func (ex *embExec) traverse(q *req, i int) bool {
	var snap *livegraph.Snapshot
	var err error
	ex.spanned("core.snapshot", i, func() { snap, err = ex.g.SnapshotCtx(ex.ctx) })
	if err != nil {
		return false
	}
	defer snap.Release()
	t := livegraph.Traverse(livegraph.VertexID(q.src)).Out(edgeLabel).Out(edgeLabel).MaxFrontier(1 << 20)
	switch q.kind {
	case kTrav2:
		t.Dedup()
	case kTrav2R:
		lo, hi := livegraph.VertexID(q.lo), livegraph.VertexID(q.hi)
		t.FilterDst(func(v livegraph.VertexID) bool { return v >= lo && v <= hi })
	case kTrav3:
		t.Out(edgeLabel).Limit(trav3Limit)
	}
	if ex.tr.enabled() {
		ex.nTrav++
	}
	if ex.tr.enabled() && ex.nTrav%8 == 0 { // every eighth traced traversal is explained instead of timed
		res, plan, err := t.RunExplain(ex.ctx, snap)
		if err != nil {
			return false
		}
		st := explainStat{results: len(res)}
		for _, h := range plan.Hops {
			if h.Kind != "out" {
				continue
			}
			st.hops++
			st.frontier += h.FrontierOut
			if h.Direction == "bottomup" {
				st.bottomUp++
			}
			if h.Parallel {
				st.par++
			}
		}
		ex.explains = append(ex.explains, st)
		return true
	}
	var res []livegraph.VertexID
	ex.spanned("core.trav_run", i, func() { res, err = t.Run(ex.ctx, snap) })
	return err == nil && (q.kind != kTrav3 || len(res) <= trav3Limit)
}

// verifyAcked replays the acknowledged-write log against g: every
// acknowledged edge state and added vertex must read back.
func verifyAcked(ctx context.Context, g *livegraph.Graph, lists ...*reqList) (checks, wrong int, err error) {
	snap, err := g.SnapshotCtx(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer snap.Release()
	eachAckedOp(lists, func(l *reqList, j int) {
		o := l.ops[j]
		checks++
		src, dst := livegraph.VertexID(o.src), livegraph.VertexID(o.dst)
		switch o.code {
		case opUpsert:
			props, err := snap.GetEdge(src, edgeLabel, dst)
			if err != nil || !bytes.Equal(props, edgeProps(o.seed)) {
				wrong++
			}
		case opDelete:
			if _, err := snap.GetEdge(src, edgeLabel, dst); !errors.Is(err, livegraph.ErrNotFound) {
				wrong++
			}
		case opAddVertex:
			data, err := snap.GetVertex(livegraph.VertexID(l.vids[j]))
			if err != nil || !bytes.Equal(data, vertexPayload(o.seed)) {
				wrong++
			}
		}
	})
	return checks, wrong, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
