package bench

import (
	"context"
	"time"

	"livegraph/internal/baseline"
	"livegraph/internal/baseline/adjlist"
	"livegraph/internal/baseline/btree"
	"livegraph/internal/baseline/csr"
	"livegraph/internal/baseline/lsmt"
	"livegraph/internal/storage"
	"livegraph/internal/tel"
	"livegraph/internal/workload/kron"
)

// telStore is a bare-TEL EdgeStore used only by the micro-benchmark: one
// TEL per source vertex, no transactions — isolating the data structure
// exactly as the paper's §2.1 experiment does (it compares layouts, not
// full systems; the visibility checks remain, matching "the overheads of
// checking edge visibility to support transactions").
type telStore struct {
	h    *storage.Handle
	tels map[int64]*tel.TEL
	n    int64
}

func newTELStore() *telStore {
	return &telStore{h: storage.NewAllocator(0).NewHandle(), tels: make(map[int64]*tel.TEL)}
}

func (s *telStore) Name() string    { return "TEL(LiveGraph)" }
func (s *telStore) NumEdges() int64 { return s.n }

func (s *telStore) AddEdge(src, dst int64, props []byte) {
	t := s.tels[src]
	if t == nil {
		t = tel.New(s.h, src, 0, 1, 16)
		s.tels[src] = t
	}
	n, pl := t.Len(), t.PropLen()
	if i := t.FindLatest(dst, n, 1<<40, 0); i >= 0 {
		t.SetInvalidation(i, 1)
	} else {
		s.n++
	}
	if !t.Fits(n, pl, len(props)) {
		nt := t.Upgrade(s.h, n, pl, len(props))
		s.h.Free(t.Block)
		t, s.tels[src] = nt, nt
	}
	pl = t.Append(n, dst, 1, props, pl)
	t.Publish(n+1, pl, 1)
}

func (s *telStore) DeleteEdge(src, dst int64) bool {
	t := s.tels[src]
	if t == nil {
		return false
	}
	i := t.FindLatest(dst, t.Len(), 1<<40, 0)
	if i < 0 {
		return false
	}
	t.SetInvalidation(i, 1)
	s.n--
	return true
}

func (s *telStore) GetEdge(src, dst int64) ([]byte, bool) {
	t := s.tels[src]
	if t == nil || !t.MayContain(dst) {
		return nil, false
	}
	i := t.FindLatest(dst, t.Len(), 1<<40, 0)
	if i < 0 {
		return nil, false
	}
	return t.Props(i), true
}

func (s *telStore) ScanNeighbors(src int64, fn func(dst int64, props []byte) bool) {
	t := s.tels[src]
	if t == nil {
		return
	}
	it := t.Scan(t.Len(), 1<<40, 0)
	for {
		i := it.Next()
		if i < 0 {
			return
		}
		if !fn(t.Dst(i), t.Props(i)) {
			return
		}
	}
}

func (s *telStore) Degree(src int64) int {
	d := 0
	s.ScanNeighbors(src, func(int64, []byte) bool { d++; return true })
	return d
}

// Fig1 reproduces the §2.1 micro-benchmark (Figure 1a/1b, with Table 1 as
// the analytic backdrop): adjacency list scans over Kronecker graphs with
// power-law start vertices, reporting seek latency (µs/vertex) and edge
// scan latency (ns/edge) per data structure and scale.
func Fig1(_ context.Context, cfg Config) {
	header(cfg, "Figure 1: seek latency (us/vertex) and edge scan latency (ns/edge)")
	row(cfg, "%-6s %-20s %14s %14s %10s", "scale", "structure", "seek us/vtx", "scan ns/edge", "edges")
	for scale := cfg.MinScale; scale <= cfg.MaxScale; scale += 2 {
		edges := kron.Generate(scale, 4, 42, kron.DefaultParams)
		stores := []baseline.EdgeStore{newTELStore(), lsmt.New(), btree.New(), adjlist.New()}
		for _, s := range stores {
			for _, e := range edges {
				s.AddEdge(e.Src, e.Dst, nil)
			}
			seek, scan, n := measureScans(
				func(v int64, fn func(int64) bool) {
					s.ScanNeighbors(v, func(d int64, _ []byte) bool { return fn(d) })
				}, edges, cfg.ScanOps)
			row(cfg, "2^%-4d %-20s %14.3f %14.1f %10d", scale, s.Name(), seek, scan, n)
		}
		// CSR (read-only reference).
		g := csr.Build(1<<scale, toCSREdges(edges))
		seek, scan, n := measureScans(
			func(v int64, fn func(int64) bool) { g.ScanNeighbors(v, fn) }, edges, cfg.ScanOps)
		row(cfg, "2^%-4d %-20s %14.3f %14.1f %10d", scale, g.Name(), seek, scan, n)
	}
}

func toCSREdges(edges []kron.Edge) []csr.Edge {
	out := make([]csr.Edge, len(edges))
	for i, e := range edges {
		out[i] = csr.Edge{Src: e.Src, Dst: e.Dst}
	}
	return out
}

// measureScans returns (seek µs/vertex, scan ns/edge, edges visited): seek
// is the latency to reach the first edge; scan is the marginal per-edge
// cost of the remainder of a full scan.
func measureScans(scan func(v int64, fn func(int64) bool), edges []kron.Edge, ops int) (float64, float64, int64) {
	sampler := kron.NewDegreeSampler(edges, 7)
	starts := make([]int64, ops)
	for i := range starts {
		starts[i] = sampler.Next()
	}
	// Seek: stop at the first edge.
	t0 := time.Now()
	for _, v := range starts {
		scan(v, func(int64) bool { return false })
	}
	seekTotal := time.Since(t0)

	// Full scan.
	var visited int64
	t0 = time.Now()
	for _, v := range starts {
		scan(v, func(int64) bool { visited++; return true })
	}
	fullTotal := time.Since(t0)

	seekUS := float64(seekTotal.Nanoseconds()) / float64(ops) / 1e3
	scanNS := 0.0
	if visited > 0 {
		marginal := fullTotal - seekTotal
		if marginal < 0 {
			marginal = 0
		}
		scanNS = float64(marginal.Nanoseconds()) / float64(visited)
	}
	return seekUS, scanNS, visited
}
