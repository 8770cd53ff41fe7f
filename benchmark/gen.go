package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// Everything the engine is fed comes from here: the graph, the request
// lists and the arrival schedule are pure functions of (workload, seed,
// seconds). The degree sequence is the same for every seed, so only the
// wiring and the request sample vary between seeds, not the amount of
// work.

// rng is splitmix64: tiny, seedable, identical on every Go version.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x1234567} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float is uniform in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp is exponential with mean 1 (Poisson inter-arrival gaps).
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// mix is a stateless hash of two words, used for payloads a check can
// recompute from the identifiers alone.
func mix(a, b uint64) uint64 {
	r := rng{s: a ^ (b * 0xD6E8FEB86659FD93)}
	return r.next()
}

// fill writes len(p) bytes derived from seed.
func fill(p []byte, seed uint64) {
	r := rng{s: seed}
	for i := 0; i < len(p); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.next())
		copy(p[i:], w[:])
	}
}

const (
	vertexBytes = 16 // vertex payload
	propBytes   = 32 // edge property payload
)

// vertexPayload is the vertex payload an addVertex op with this seed
// writes; vertexData is a base vertex's.
func vertexPayload(seed uint64) []byte {
	p := make([]byte, vertexBytes)
	fill(p, seed)
	return p
}

func vertexData(id int64) []byte { return vertexPayload(mix(uint64(id), 0xA11CE)) }

func edgeProps(seed uint64) []byte {
	p := make([]byte, propBytes)
	fill(p, seed)
	return p
}

// sampler draws ranks 0..n-1 with probability proportional to
// (rank+1)^-exponent by inverting the cumulative weights.
type sampler struct{ cum []float64 }

func newSampler(n int, exponent float64) *sampler {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -exponent)
		cum[i] = total
	}
	return &sampler{cum: cum}
}

func (s *sampler) draw(r *rng) int {
	x := r.float() * s.cum[len(s.cum)-1]
	return sort.SearchFloat64s(s.cum, x)
}

// graphSpec is a frozen graph shape (BENCHMARK constants, see params.go).
type graphSpec struct {
	LogN    int     // 2^LogN vertices
	MeanDeg int     // mean out-degree
	MaxDeg  int     // out-degree cap (bounds the worst two-hop frontier)
	DegExp  float64 // out-degree ~ (rank+1)^-DegExp
	DstExp  float64 // in-popularity ~ (rank+1)^-DstExp, same ranking
}

// model is the benchmark's own reference adjacency: base edges in CSR
// form, per-source lists in insertion order (the engine scans newest
// first, so Neighbors yields a list reversed).
type model struct {
	n    int
	off  []int32 // len n+1
	dst  []int32
	perm []int32 // degree rank -> vertex ID
}

func (m *model) out(v int) []int32 { return m.dst[m.off[v]:m.off[v+1]] }
func (m *model) deg(v int) int     { return int(m.off[v+1] - m.off[v]) }
func (m *model) edges() int        { return len(m.dst) }

func (m *model) has(src, dst int) bool {
	for _, d := range m.out(src) {
		if int(d) == dst {
			return true
		}
	}
	return false
}

// degreeSequence returns per-rank out-degrees summing to about n*mean,
// independent of the seed.
func degreeSequence(spec graphSpec) []int32 {
	n := 1 << spec.LogN
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -spec.DegExp)
	}
	want := float64(n * spec.MeanDeg)
	total := func(c float64) float64 {
		t := 0.0
		for _, x := range w {
			t += math.Min(math.Max(math.Round(c*x), 1), float64(spec.MaxDeg))
		}
		return t
	}
	lo, hi := 0.0, want
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if total(mid) < want {
			lo = mid
		} else {
			hi = mid
		}
	}
	deg := make([]int32, n)
	for i, x := range w {
		deg[i] = int32(math.Min(math.Max(math.Round(hi*x), 1), float64(spec.MaxDeg)))
	}
	return deg
}

// genGraph builds the base graph: power-law out-degrees, destinations
// drawn by the same popularity ranking, hubs scattered over the ID space
// by a seeded permutation, no self loops and no duplicate (src,dst).
func genGraph(spec graphSpec, seed uint64) *model {
	n := 1 << spec.LogN
	r := newRng(seed ^ 0x6A09E667)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	degByRank := degreeSequence(spec)
	m := &model{n: n, off: make([]int32, n+1), perm: perm}
	degOf := make([]int32, n)
	for rank, d := range degByRank {
		degOf[perm[rank]] = d
	}
	for v := 0; v < n; v++ {
		m.off[v+1] = m.off[v] + degOf[v]
	}
	m.dst = make([]int32, m.off[n])
	pop := newSampler(n, spec.DstExp)
	stamp := make([]int32, n) // stamp[d] == v+1: d already a neighbor of v
	for v := 0; v < n; v++ {
		out := m.dst[m.off[v]:m.off[v+1]]
		for i := range out {
			for {
				d := perm[pop.draw(r)]
				if int(d) != v && stamp[d] != int32(v+1) {
					stamp[d] = int32(v + 1)
					out[i] = d
					break
				}
			}
		}
	}
	return m
}

// Request kinds. The string forms are the class names in results.
const (
	kNeighbors = iota
	kVertex
	kDegree
	kEdge
	kUpsert // single-edge upsert transaction
	kTx     // four-op LinkBench write transaction
	kTrav2  // two hops, dedup
	kTrav2R // two hops, destination range pushed down
	kTrav3  // three hops, limit 100
	kCheckpoint
	numKinds
)

var kindNames = [numKinds]string{"neighbors", "vertex", "degree", "edge", "upsert", "tx", "trav2", "trav2range", "trav3", "checkpoint"}

// Latency classes a request kind is reported under.
const (
	cRead = iota
	cWrite
	cTrav
	cAdmin // checkpoints: issued, checked, not a latency class
	numClasses
)

func classOf(kind uint8) int {
	switch kind {
	case kNeighbors, kVertex, kDegree, kEdge:
		return cRead
	case kUpsert, kTx:
		return cWrite
	case kTrav2, kTrav2R, kTrav3:
		return cTrav
	}
	return cAdmin
}

// Write op codes inside a transaction.
const (
	opUpsert = iota
	opDelete
	opAddVertex
)

// wop is one write operation. Each (src,dst) pair is written by at most
// one op of a run, so the final state of every touched edge does not
// depend on how the two clients interleave.
type wop struct {
	code     uint8
	src, dst int32
	seed     uint64 // payload seed: props (edges) or data (vertices)
}

// req is one generated request. lo/hi is the dst range of kTrav2R; ops is
// a [from,to) window into reqList.ops for kUpsert and kTx.
type req struct {
	kind     uint8
	src, dst int32
	lo, hi   int32
	opFrom   int32
	opTo     int32
}

// reqList is a seeded request list plus, for the open loop, the due time
// of each request as an offset from the window start.
type reqList struct {
	reqs []req
	ops  []wop
	due  []int64 // ns; nil for a closed loop

	// The acknowledged-write log a run fills in: which write requests were
	// acknowledged and the IDs addVertex ops were given.
	acked []bool
	vids  []int64
}

// hash fingerprints the list: same seed, same hash, byte-identical work.
func (l *reqList) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, q := range l.reqs {
		put(uint64(q.kind))
		put(uint64(q.src)<<32 | uint64(uint32(q.dst)))
		put(uint64(q.lo)<<32 | uint64(uint32(q.hi)))
		put(uint64(q.opTo - q.opFrom))
		if l.due != nil {
			put(uint64(l.due[i]))
		}
	}
	for _, o := range l.ops {
		put(uint64(o.code))
		put(uint64(o.src)<<32 | uint64(uint32(o.dst)))
		put(o.seed)
	}
	return h.Sum64()
}

// mixEntry is one line of a traffic mix: kind and its share in 1/1000.
type mixEntry struct {
	kind     uint8
	permille int
}

// generator turns a mix into request lists against one model, keeping
// the set of (src,dst) pairs already written so no pair is written twice.
type generator struct {
	m       *model
	r       *rng
	hot     *sampler // Zipf-skewed source popularity
	hotPerm []int32  // popularity rank -> vertex ID
	touched map[uint64]struct{}
	written []bool // vertices some op writes: their reads are not exactly checkable
	nextOp  uint64
}

func newGenerator(m *model, seed uint64, zipfExp float64) *generator {
	// Popularity rank k belongs to degree rank sigma[k], with sigma the
	// same shuffle for every seed: how hot a vertex is says nothing about
	// its degree, yet the hottest sources have the same degrees under
	// every seed, so the cost of the request stream does not swing with it.
	sigma := newRng(0x5EED)
	hotPerm := append([]int32(nil), m.perm...)
	for i := m.n - 1; i > 0; i-- {
		j := sigma.intn(i + 1)
		hotPerm[i], hotPerm[j] = hotPerm[j], hotPerm[i]
	}
	return &generator{
		m: m, r: newRng(seed ^ 0xBB67AE85), hot: newSampler(m.n, zipfExp), hotPerm: hotPerm,
		touched: make(map[uint64]struct{}), written: make([]bool, m.n),
	}
}

func pairKey(src, dst int32) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

func (g *generator) source() int32 { return g.hotPerm[g.hot.draw(g.r)] }

// freshPair picks a hot source and a destination it has no edge to.
func (g *generator) freshPair() (int32, int32) {
	for {
		src := g.source()
		dst := int32(g.r.intn(g.m.n))
		if src == dst || g.m.has(int(src), int(dst)) {
			continue
		}
		if _, dup := g.touched[pairKey(src, dst)]; dup {
			continue
		}
		return src, dst
	}
}

// basePair picks an existing base edge no op has written yet; ok is
// false when a few tries found none (hot low-degree sources run out).
func (g *generator) basePair() (src, dst int32, ok bool) {
	for try := 0; try < 16; try++ {
		src = g.source()
		out := g.m.out(int(src))
		if len(out) == 0 {
			continue
		}
		dst = out[g.r.intn(len(out))]
		if _, dup := g.touched[pairKey(src, dst)]; !dup {
			return src, dst, true
		}
	}
	return 0, 0, false
}

func (g *generator) addOp(l *reqList, code uint8, src, dst int32) {
	g.nextOp++
	if code != opAddVertex {
		g.touched[pairKey(src, dst)] = struct{}{}
		g.written[src] = true
	}
	l.ops = append(l.ops, wop{code: code, src: src, dst: dst, seed: mix(g.nextOp, 0x0F0F)})
}

// upsertOp writes one edge: half the time a new pair, half an update of a
// base edge.
func (g *generator) upsertOp(l *reqList, newOnly bool) {
	if !newOnly && g.r.intn(2) == 0 {
		if s, d, ok := g.basePair(); ok {
			g.addOp(l, opUpsert, s, d)
			return
		}
	}
	s, d := g.freshPair()
	g.addOp(l, opUpsert, s, d)
}

// linkbenchOp is one op of LinkBench-DFLT's write split: 5 % addVertex,
// the rest 45/40/15 add/update/delete link.
func (g *generator) linkbenchOp(l *reqList) {
	x := g.r.intn(1000)
	switch {
	case x < 50:
		g.addOp(l, opAddVertex, 0, 0)
		return
	case x < 50+428: // 45 % of the remaining 95 %
		s, d := g.freshPair()
		g.addOp(l, opUpsert, s, d)
		return
	}
	s, d, ok := g.basePair()
	if !ok {
		s, d = g.freshPair()
		g.addOp(l, opUpsert, s, d)
		return
	}
	if x < 50+428+380 {
		g.addOp(l, opUpsert, s, d)
	} else {
		g.addOp(l, opDelete, s, d)
	}
}

// list generates count requests of the mix. newEdgesOnly makes single
// upserts always create edges (so adjacency lists grow).
func (g *generator) list(mix []mixEntry, count int, newEdgesOnly bool) *reqList {
	l := &reqList{reqs: make([]req, 0, count)}
	rangeWidth := int32(g.m.n / 16)
	for len(l.reqs) < count {
		x := g.r.intn(1000)
		kind := mix[len(mix)-1].kind
		for _, e := range mix {
			if x < e.permille {
				kind = e.kind
				break
			}
			x -= e.permille
		}
		q := req{kind: kind, src: g.source()}
		switch kind {
		case kEdge:
			out := g.m.out(int(q.src))
			if len(out) == 0 {
				continue
			}
			q.dst = out[g.r.intn(len(out))]
		case kUpsert:
			q.opFrom = int32(len(l.ops))
			g.upsertOp(l, newEdgesOnly)
			q.opTo = int32(len(l.ops))
			q.src = l.ops[q.opFrom].src
		case kTx:
			q.opFrom = int32(len(l.ops))
			for i := 0; i < 4; i++ {
				g.linkbenchOp(l)
			}
			q.opTo = int32(len(l.ops))
		case kTrav2R:
			q.lo = int32(g.r.intn(16)) * rangeWidth
			q.hi = q.lo + rangeWidth - 1
		}
		l.reqs = append(l.reqs, q)
	}
	l.acked = make([]bool, len(l.reqs))
	l.vids = make([]int64, len(l.ops))
	return l
}

// schedule gives the list Poisson arrivals at rate per second.
func (g *generator) schedule(l *reqList, rate float64) {
	l.due = make([]int64, len(l.reqs))
	t := 0.0
	for i := range l.due {
		t += g.r.exp() / rate
		l.due[i] = int64(t * 1e9)
	}
}
