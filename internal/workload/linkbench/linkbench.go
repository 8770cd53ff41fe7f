// Package linkbench implements a LinkBench-style workload driver (paper
// §7.1–§7.2, refs [12, 20]): Facebook's social-graph benchmark of node and
// link operations over a power-law base graph.
//
// Two standard mixes are provided: DFLT (LinkBench's default, 69% reads /
// 31% writes) and TAO (99.8% reads, parameterised after Facebook's TAO
// paper), plus parametric mixes for the write-ratio sweep of Figure 8.
package linkbench

import (
	"math/rand"
	"sync"
	"time"

	"livegraph/internal/obs"
	"livegraph/internal/workload"
	"livegraph/internal/workload/kron"
)

// Op is one LinkBench operation type.
type Op int

// LinkBench operations (a subset of the benchmark's op set covering the
// node and link CRUD plus the dominant GET_LINKS_LIST scan).
const (
	OpGetNode Op = iota
	OpAddNode
	OpUpdateNode
	OpGetLink
	OpAddLink
	OpDeleteLink
	OpUpdateLink
	OpGetLinkList
	OpCountLinks
	numOps
)

var opNames = [...]string{
	"GET_NODE", "ADD_NODE", "UPDATE_NODE", "GET_LINK", "ADD_LINK",
	"DELETE_LINK", "UPDATE_LINK", "GET_LINKS_LIST", "COUNT_LINKS",
}

// String returns the operation's LinkBench name.
func (o Op) String() string { return opNames[o] }

// IsWrite reports whether the operation mutates the graph.
func (o Op) IsWrite() bool {
	switch o {
	case OpAddNode, OpUpdateNode, OpAddLink, OpDeleteLink, OpUpdateLink:
		return true
	}
	return false
}

// Mix is an operation distribution (weights need not sum to 1).
type Mix struct {
	Name    string
	Weights [numOps]float64
}

// DFLT is LinkBench's default configuration: 69% reads, 31% writes
// (weights follow the LinkBench paper's published operation mix).
var DFLT = Mix{Name: "DFLT", Weights: [numOps]float64{
	OpGetNode:     12.9,
	OpAddNode:     2.6,
	OpUpdateNode:  7.4,
	OpGetLink:     0.5,
	OpAddLink:     9.0,
	OpDeleteLink:  3.0,
	OpUpdateLink:  8.0,
	OpGetLinkList: 51.7,
	OpCountLinks:  4.9,
}}

// TAO is the read-mostly mix (99.8% reads) with parameters set after the
// Facebook TAO paper, dominated by adjacency-list reads.
var TAO = Mix{Name: "TAO", Weights: [numOps]float64{
	OpGetNode:     12.9,
	OpGetLink:     0.5,
	OpGetLinkList: 81.5,
	OpCountLinks:  4.9,
	OpAddLink:     0.1,
	OpUpdateLink:  0.1,
}}

// WriteRatioMix builds the parametric mix for Figure 8: writes (split
// between add/update/delete links like DFLT's write mix) scaled to the
// given fraction, the remainder GET_LINKS_LIST reads.
func WriteRatioMix(writeFrac float64) Mix {
	var m Mix
	m.Name = "W" + itoa(int(writeFrac*100))
	m.Weights[OpAddLink] = writeFrac * 0.45
	m.Weights[OpUpdateLink] = writeFrac * 0.40
	m.Weights[OpDeleteLink] = writeFrac * 0.15
	m.Weights[OpGetLinkList] = 1 - writeFrac
	return m
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for x > 0 {
		i--
		b[i] = byte('0' + x%10)
		x /= 10
	}
	return string(b[i:])
}

// sampler draws ops from a mix.
type sampler struct {
	cum   [numOps]float64
	total float64
}

func newSampler(m Mix) *sampler {
	s := &sampler{}
	for i, w := range m.Weights {
		s.total += w
		s.cum[i] = s.total
	}
	return s
}

func (s *sampler) next(rng *rand.Rand) Op {
	r := rng.Float64() * s.total
	for i, c := range s.cum {
		if r < c {
			return Op(i)
		}
	}
	return OpGetLinkList
}

// Store is the system-under-test interface. LiveGraph and every baseline
// provide an adapter (see adapters.go).
type Store interface {
	Name() string
	AddNode(data []byte) int64
	GetNode(id int64) ([]byte, bool)
	UpdateNode(id int64, data []byte) bool
	// AddLink upserts a link (LinkBench upsert semantics).
	AddLink(src, dst int64, props []byte)
	DeleteLink(src, dst int64) bool
	GetLink(src, dst int64) ([]byte, bool)
	// ScanLinks streams src's links newest-first up to limit entries and
	// returns the number visited (GET_LINKS_LIST).
	ScanLinks(src int64, limit int) int
	CountLinks(src int64) int
}

// Config parameterises a run.
type Config struct {
	Mix      Mix
	Clients  int
	Requests int // per client
	Seed     int64
	// ThinkTime, when non-zero, sleeps between requests (the paper's
	// latency runs reproduce recorded think times; throughput runs remove
	// them).
	ThinkTime time.Duration
	// NodePayload is the size of node/link property payloads.
	NodePayload int
}

// BaseGraph describes the initial social graph. The paper's base graph is
// 32M vertices / 140M edges (avg degree ~4.4); Build scales that shape
// down via the Kronecker generator.
type BaseGraph struct {
	Scale     int // vertices = 2^Scale
	AvgDegree int
	Seed      int64
}

// DefaultBase is a laptop-sized base graph with the paper's average degree.
var DefaultBase = BaseGraph{Scale: 14, AvgDegree: 4, Seed: 42}

// Build loads the base graph into the store and returns the edge list for
// access-skew sampling.
func Build(s Store, bg BaseGraph, payload int) []kron.Edge {
	n := int64(1) << bg.Scale
	data := make([]byte, payload)
	for i := int64(0); i < n; i++ {
		s.AddNode(data)
	}
	edges := kron.Generate(bg.Scale, bg.AvgDegree, bg.Seed, kron.DefaultParams)
	for _, e := range edges {
		s.AddLink(e.Src, e.Dst, data)
	}
	return edges
}

// Result extends workload.Result with per-op histograms.
type Result struct {
	workload.Result
	PerOp [numOps]*obs.Histogram
}

// Run executes the workload against the store with cfg.Clients concurrent
// client goroutines issuing cfg.Requests each, and returns aggregate and
// per-op latency distributions.
func Run(s Store, edges []kron.Edge, cfg Config) Result {
	res := Result{Result: workload.Result{Name: s.Name() + "/" + cfg.Mix.Name, Hist: obs.NewHistogram()}}
	for i := range res.PerOp {
		res.PerOp[i] = obs.NewHistogram()
	}
	if cfg.NodePayload <= 0 {
		cfg.NodePayload = 64
	}
	smp := newSampler(cfg.Mix)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			sampler := kron.NewDegreeSampler(edges, cfg.Seed+int64(c))
			payload := make([]byte, cfg.NodePayload)
			rng.Read(payload)
			nodeCount := int64(1) << 62 // refreshed below
			if len(edges) > 0 {
				nodeCount = maxVertex(edges) + 1
			}
			for i := 0; i < cfg.Requests; i++ {
				op := smp.next(rng)
				t0 := time.Now()
				runOp(s, op, rng, sampler, nodeCount, payload)
				d := time.Since(t0)
				res.Hist.Record(d)
				res.PerOp[op].Record(d)
				if cfg.ThinkTime > 0 {
					time.Sleep(cfg.ThinkTime)
				}
			}
		}(c)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Operations = int64(cfg.Clients) * int64(cfg.Requests)
	return res
}

func maxVertex(edges []kron.Edge) int64 {
	var m int64
	for _, e := range edges {
		if e.Src > m {
			m = e.Src
		}
		if e.Dst > m {
			m = e.Dst
		}
	}
	return m
}

func runOp(s Store, op Op, rng *rand.Rand, sampler *kron.DegreeSampler, nodeCount int64, payload []byte) {
	src := sampler.Next()
	switch op {
	case OpGetNode:
		s.GetNode(src)
	case OpAddNode:
		s.AddNode(payload)
	case OpUpdateNode:
		s.UpdateNode(src, payload)
	case OpGetLink:
		s.GetLink(src, rng.Int63n(nodeCount))
	case OpAddLink:
		// True insertion: a fresh destination with high probability.
		s.AddLink(src, rng.Int63n(1<<40)+nodeCount, payload)
	case OpDeleteLink:
		s.DeleteLink(src, rng.Int63n(nodeCount))
	case OpUpdateLink:
		// Update an existing link if one is found quickly, else upsert.
		s.AddLink(src, pickNeighbor(s, src, rng, nodeCount), payload)
	case OpGetLinkList:
		// LinkBench: fetch the most recent links (default limit 10000, but
		// the common case returns far fewer; TAO reads latest items first).
		s.ScanLinks(src, 10000)
	case OpCountLinks:
		s.CountLinks(src)
	}
}

// pickNeighbor returns an existing neighbor of src when possible (time
// locality: the most recent one), else a random destination.
func pickNeighbor(s Store, src int64, rng *rand.Rand, nodeCount int64) int64 {
	dst := int64(-1)
	got := false
	// ScanLinks can't return a dst through the Store interface, so emulate
	// "update a recent link" with a GetLink probe followed by upsert.
	if _, ok := s.GetLink(src, src+1); ok {
		dst, got = src+1, true
	}
	if !got {
		dst = rng.Int63n(nodeCount)
	}
	return dst
}
