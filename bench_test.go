// Package livegraph_test: one testing.B benchmark per table and figure of
// the paper's evaluation. These are the fine-grained, ns/op counterparts of
// the full harness in internal/bench (cmd/lgbench), which prints the
// paper-formatted rows; EXPERIMENTS.md maps each to the paper.
//
// Run: go test -bench=. -benchmem
package livegraph_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"livegraph"
	"livegraph/internal/analytics"
	"livegraph/internal/baseline"
	"livegraph/internal/baseline/adjlist"
	"livegraph/internal/baseline/btree"
	"livegraph/internal/baseline/csr"
	"livegraph/internal/baseline/lsmt"
	"livegraph/internal/bench"
	"livegraph/internal/core"
	"livegraph/internal/disk"
	"livegraph/internal/iosim"
	"livegraph/internal/workload/kron"
	"livegraph/internal/workload/linkbench"
	"livegraph/internal/workload/snb"
)

const benchScale = 12 // 4096 vertices, ~16k edges: small enough to build per-benchmark

// ---- Figure 1: seek and scan latency per data structure -------------------

var fig1Edges = sync.OnceValue(func() []kron.Edge {
	return kron.Generate(benchScale, 4, 42, kron.DefaultParams)
})

func benchStores() map[string]baseline.EdgeStore {
	return map[string]baseline.EdgeStore{
		"LSMT":       lsmt.New(),
		"BTree":      btree.New(),
		"LinkedList": adjlist.New(),
	}
}

func loadEdges(s baseline.EdgeStore, edges []kron.Edge) {
	for _, e := range edges {
		s.AddEdge(e.Src, e.Dst, nil)
	}
}

func BenchmarkFig1Seek(b *testing.B) {
	edges := fig1Edges()
	for name, s := range benchStores() {
		loadEdges(s, edges)
		b.Run(name, func(b *testing.B) {
			sampler := kron.NewDegreeSampler(edges, 7)
			for i := 0; i < b.N; i++ {
				s.ScanNeighbors(sampler.Next(), func(int64, []byte) bool { return false })
			}
		})
	}
	b.Run("CSR", func(b *testing.B) {
		g := csr.Build(1<<benchScale, toCSR(edges))
		sampler := kron.NewDegreeSampler(edges, 7)
		for i := 0; i < b.N; i++ {
			g.ScanNeighbors(sampler.Next(), func(int64) bool { return false })
		}
	})
	b.Run("TEL", func(b *testing.B) {
		g := openBench(b)
		st := &linkbench.LiveGraphStore{G: g}
		loadLG(b, g, edges)
		sampler := kron.NewDegreeSampler(edges, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.ScanLinks(sampler.Next(), 1)
		}
	})
}

func BenchmarkFig1Scan(b *testing.B) {
	edges := fig1Edges()
	for name, s := range benchStores() {
		loadEdges(s, edges)
		b.Run(name, func(b *testing.B) {
			sampler := kron.NewDegreeSampler(edges, 7)
			visited := int64(0)
			for i := 0; i < b.N; i++ {
				s.ScanNeighbors(sampler.Next(), func(int64, []byte) bool { visited++; return true })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/edge")
		})
	}
	b.Run("CSR", func(b *testing.B) {
		g := csr.Build(1<<benchScale, toCSR(edges))
		sampler := kron.NewDegreeSampler(edges, 7)
		visited := int64(0)
		for i := 0; i < b.N; i++ {
			g.ScanNeighbors(sampler.Next(), func(int64) bool { visited++; return true })
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/edge")
	})
	b.Run("TEL", func(b *testing.B) {
		g := openBench(b)
		loadLG(b, g, edges)
		sampler := kron.NewDegreeSampler(edges, 7)
		r, _ := g.BeginRead()
		defer r.Commit()
		visited := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := r.Neighbors(core.VertexID(sampler.Next()), 0)
			for it.Next() {
				visited++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/edge")
	})
}

func toCSR(edges []kron.Edge) []csr.Edge {
	out := make([]csr.Edge, len(edges))
	for i, e := range edges {
		out[i] = csr.Edge{Src: e.Src, Dst: e.Dst}
	}
	return out
}

func openBench(b *testing.B) *core.Graph {
	b.Helper()
	g, err := core.Open(core.Options{Workers: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { g.Close() })
	return g
}

func loadLG(b *testing.B, g *core.Graph, edges []kron.Edge) {
	b.Helper()
	tx, _ := g.Begin()
	for i := 0; i < 1<<benchScale; i++ {
		tx.AddVertex(nil)
	}
	for _, e := range edges {
		tx.InsertEdge(core.VertexID(e.Src), 0, core.VertexID(e.Dst), nil)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

// ---- Tables 3–6: LinkBench operation latency -------------------------------

// linkbenchOps runs b.N single-client LinkBench ops of the mix against the
// store (the tables' latency measurement, minus multi-client queueing).
func linkbenchOps(b *testing.B, s linkbench.Store, mix linkbench.Mix) {
	edges := linkbench.Build(s, linkbench.BaseGraph{Scale: 10, AvgDegree: 4, Seed: 42}, 64)
	b.ResetTimer()
	res := linkbench.Run(s, edges, linkbench.Config{Mix: mix, Clients: 1, Requests: b.N, Seed: 7})
	b.ReportMetric(res.Throughput(), "reqs/s")
}

// latencyTable runs b.N LinkBench ops of the mix against each system built
// by the shared harness (identical base graph, identical durability and
// paging models as lgbench's tables).
func latencyTable(b *testing.B, ooc bool, mix linkbench.Mix) {
	cfg := bench.Default(nil)
	cfg.LBScale = 10
	systems, edges, done := bench.BuildSystems(cfg, iosim.Optane, ooc)
	b.Cleanup(done)
	for _, s := range systems {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			b.ResetTimer()
			res := linkbench.Run(s.Store, edges, linkbench.Config{Mix: mix, Clients: 1, Requests: b.N, Seed: 7})
			b.ReportMetric(res.Throughput(), "reqs/s")
		})
	}
}

func BenchmarkTable3TAOInMemory(b *testing.B)   { latencyTable(b, false, linkbench.TAO) }
func BenchmarkTable4DFLTInMemory(b *testing.B)  { latencyTable(b, false, linkbench.DFLT) }
func BenchmarkTable5TAOOutOfCore(b *testing.B)  { latencyTable(b, true, linkbench.TAO) }
func BenchmarkTable6DFLTOutOfCore(b *testing.B) { latencyTable(b, true, linkbench.DFLT) }

// ---- Figures 5/6/7a: throughput under concurrency --------------------------

func parallelLinkbench(b *testing.B, mix linkbench.Mix) {
	g := openBench(b)
	s := &linkbench.LiveGraphStore{G: g}
	edges := linkbench.Build(s, linkbench.BaseGraph{Scale: 10, AvgDegree: 4, Seed: 42}, 64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		sampler := kron.NewDegreeSampler(edges, rng.Int63())
		for pb.Next() {
			v := sampler.Next()
			if rng.Float64() < writeFrac(mix) {
				s.AddLink(v, rng.Int63n(1<<30)+1<<20, nil)
			} else {
				s.ScanLinks(v, 10000)
			}
		}
	})
}

func writeFrac(mix linkbench.Mix) float64 {
	var total, writes float64
	for op, w := range mix.Weights {
		total += w
		if linkbench.Op(op).IsWrite() {
			writes += w
		}
	}
	return writes / total
}

func BenchmarkFig5TAOParallel(b *testing.B)  { parallelLinkbench(b, linkbench.TAO) }
func BenchmarkFig6DFLTParallel(b *testing.B) { parallelLinkbench(b, linkbench.DFLT) }

func BenchmarkFig7aScalability(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(linkbenchClients(clients), func(b *testing.B) {
			g := openBench(b)
			s := &linkbench.LiveGraphStore{G: g}
			edges := linkbench.Build(s, linkbench.BaseGraph{Scale: 10, AvgDegree: 4, Seed: 42}, 64)
			b.SetParallelism(clients)
			b.ResetTimer()
			res := linkbench.Run(s, edges, linkbench.Config{
				Mix: linkbench.TAO, Clients: clients, Requests: b.N/clients + 1, Seed: 3})
			b.ReportMetric(res.Throughput(), "reqs/s")
		})
	}
}

func linkbenchClients(n int) string {
	return map[int]string{1: "1client", 2: "2clients", 4: "4clients", 8: "8clients"}[n]
}

// ---- Figure 7b / §7.2 memory: allocation-path cost --------------------------

func BenchmarkFig7bBlockGrowth(b *testing.B) {
	// The block-size distribution itself is a report (lgbench -exp fig7b);
	// this measures its driver: log growth through doubling upgrades.
	g := openBench(b)
	tx, _ := g.Begin()
	hub, _ := tx.AddVertex(nil)
	tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := g.Begin()
		tx.InsertEdge(hub, 0, core.VertexID(i+10), nil)
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Stats().Upgrades.Load()), "upgrades")
}

func BenchmarkMemCompaction(b *testing.B) {
	// §7.2: cost of one compaction pass over a dirty high-churn vertex.
	g := openBench(b)
	var a core.VertexID
	tx, _ := g.Begin()
	a, _ = tx.AddVertex(nil)
	tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 64; j++ {
			tx, _ := g.Begin()
			tx.AddEdge(a, 0, 99, []byte{byte(j)})
			tx.Commit()
		}
		b.StartTimer()
		g.CompactNow()
	}
}

// ---- Figure 8: write-ratio sweep -------------------------------------------

func BenchmarkFig8WriteRatio(b *testing.B) {
	for _, wr := range []int{25, 50, 75, 100} {
		mix := linkbench.WriteRatioMix(float64(wr) / 100)
		b.Run(mix.Name+"-LiveGraph", func(b *testing.B) {
			g := openBench(b)
			linkbenchOps(b, &linkbench.LiveGraphStore{G: g}, mix)
		})
		b.Run(mix.Name+"-RocksDB", func(b *testing.B) {
			linkbenchOps(b, &linkbench.BaselineStore{Edges: lsmt.New()}, mix)
		})
	}
}

// ---- Durable commit throughput ----------------------------------------------

// benchWALDir prefers a ramdisk for durable benchmarks so the measured
// persist time comes from the iosim device model, not host-filesystem
// fsync noise (see the wal package doc).
func benchWALDir(b *testing.B) string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", "lg-commit-bench-*"); err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

// BenchmarkCommitThroughput runs a write-only, durability-bound commit
// workload on the simulated NAND device. The payload is sized so a commit
// group's persist phase is bandwidth-bound, not fsync-latency-bound.
func BenchmarkCommitThroughput(b *testing.B) {
	payload := make([]byte, 64<<10)
	const vertices = 1 << 10
	g, err := core.Open(core.Options{
		Dir:          benchWALDir(b),
		Backend:      disk.NewSim(iosim.NewDevice(iosim.NAND), disk.NewReal()),
		Workers:      512,
		CompactEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	tx, _ := g.Begin()
	for i := 0; i < vertices; i++ {
		tx.AddVertex(nil)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	// ~32 concurrent committers regardless of core count, so the
	// leader always finds a group to amortise the fsync over.
	if par := 32 / runtime.GOMAXPROCS(0); par > 1 {
		b.SetParallelism(par)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			for {
				tx, err := g.Begin()
				if err != nil {
					return
				}
				src := core.VertexID(rng.Intn(vertices))
				dst := core.VertexID(vertices + rng.Intn(1<<30))
				if err := tx.InsertEdge(src, 0, dst, payload); err != nil {
					if core.IsRetryable(err) {
						continue // aborted internally; retry
					}
					b.Error(err)
					return
				}
				err = tx.Commit()
				if err == nil {
					break
				}
				if !core.IsRetryable(err) {
					b.Error(err)
					return
				}
			}
		}
	})
}

// ---- §7.2 checkpoint ---------------------------------------------------------

func BenchmarkCkptCheckpoint(b *testing.B) {
	dir := b.TempDir()
	g, err := core.Open(core.Options{Dir: dir, Workers: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	s := &linkbench.LiveGraphStore{G: g}
	linkbench.Build(s, linkbench.BaseGraph{Scale: 11, AvgDegree: 4, Seed: 42}, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Tables 7–9: SNB --------------------------------------------------------

type snbFixture struct {
	b  snb.Backend
	ds *snb.Dataset
}

func snbSystems(b *testing.B) map[string]snbFixture {
	b.Helper()
	g := openBench(b)
	out := map[string]snbFixture{}
	for name, backend := range map[string]snb.Backend{
		"LiveGraph":  &snb.LiveGraphBackend{G: g},
		"EdgeTable":  snb.NewTableBackend(),
		"Heap+Index": snb.NewHeapBackend(),
	} {
		ds, err := snb.Generate(backend, snb.GenConfig{Persons: 200, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		out[name] = snbFixture{backend, ds}
	}
	return out
}

func BenchmarkTable7SNBOverall(b *testing.B) {
	for name, f := range snbSystems(b) {
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			res := snb.Run(f.b, f.ds, snb.DriverConfig{Clients: 1, Requests: b.N, Seed: 23})
			b.ReportMetric(res.Throughput(), "reqs/s")
		})
	}
}

func BenchmarkTable8SNBComplexOnly(b *testing.B) {
	for name, f := range snbSystems(b) {
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			res := snb.Run(f.b, f.ds, snb.DriverConfig{Clients: 1, Requests: b.N, Seed: 23, ComplexOnly: true})
			b.ReportMetric(res.Throughput(), "reqs/s")
		})
	}
}

func BenchmarkTable9Queries(b *testing.B) {
	for name, f := range snbSystems(b) {
		rng := rand.New(rand.NewSource(31))
		b.Run(name+"/complex1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snb.ComplexRead1(f.b, f.ds.RandPerson(rng), f.ds.RandName(rng), 20)
			}
		})
		b.Run(name+"/complex13", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snb.ComplexRead13(f.b, f.ds.RandPerson(rng), f.ds.RandPerson(rng))
			}
		})
		b.Run(name+"/short2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snb.ShortRead2(f.b, f.ds.RandPerson(rng))
			}
		})
		b.Run(name+"/update", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snb.AddFriendship(f.b, f.ds.RandPerson(rng), f.ds.RandPerson(rng))
			}
		})
	}
}

// ---- Table 10: in-situ analytics vs ETL + CSR -------------------------------

func BenchmarkTable10(b *testing.B) {
	g := openBench(b)
	lg := &snb.LiveGraphBackend{G: g}
	if _, err := snb.Generate(lg, snb.GenConfig{Persons: 400, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	snap, err := g.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Release()
	view := analytics.SnapshotView{Snap: snap, Label: core.Label(snb.LKnows)}

	b.Run("PageRankInSitu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.PageRank(view, 20, 4)
		}
	})
	b.Run("ConnCompInSitu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.ConnComp(view, 4)
		}
	})
	b.Run("ETL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csr.BuildFromScanner(snap.NumVertices(), func(fn func(src, dst int64)) {
				for v := int64(0); v < snap.NumVertices(); v++ {
					snap.ScanNeighbors(core.VertexID(v), core.Label(snb.LKnows),
						func(dst core.VertexID, _ []byte) bool { fn(v, int64(dst)); return true })
				}
			})
		}
	})
	cg := csr.BuildFromScanner(snap.NumVertices(), func(fn func(src, dst int64)) {
		for v := int64(0); v < snap.NumVertices(); v++ {
			snap.ScanNeighbors(core.VertexID(v), core.Label(snb.LKnows),
				func(dst core.VertexID, _ []byte) bool { fn(v, int64(dst)); return true })
		}
	})
	b.Run("PageRankCSR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.PageRank(analytics.CSRView{G: cg}, 20, 4)
		}
	})
	b.Run("ConnCompCSR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.ConnComp(analytics.CSRView{G: cg}, 4)
		}
	})
}

// ---- Two-hop traversal: the v2 builder vs hand-rolled nested loops ---------

// BenchmarkTwoHopTraversal measures the paper's §7 friends-of-friends
// pattern on a power-law graph, comparing the composable traversal builder
// against explicitly nested iterator loops — the builder compiles to the
// same nested sequential TEL scans, so the two should track each other.
func BenchmarkTwoHopTraversal(b *testing.B) {
	edges := fig1Edges()
	g := openBench(b)
	loadLG(b, g, edges)
	ctx := context.Background()
	snap, err := g.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Release()

	b.Run("Builder", func(b *testing.B) {
		sampler := kron.NewDegreeSampler(edges, 7)
		visited := int64(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Traverse(core.VertexID(sampler.Next())).Out(0).Out(0).Run(ctx, snap)
			if err != nil {
				b.Fatal(err)
			}
			visited += int64(len(res))
		}
		b.ReportMetric(float64(visited)/float64(b.N), "results/op")
	})
	// The same walk through the morsel-driven engine at fixed worker-pool
	// widths (p=1 pins the sequential compilation; p=8 fans wide hops out).
	// In-memory scans are CPU-bound, so the gap tracks core count; see
	// BenchmarkParallelTraversal for the out-of-core regime, where workers
	// overlap simulated page-fault latency even on one core.
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("Parallel/p=%d", p), func(b *testing.B) {
			sampler := kron.NewDegreeSampler(edges, 7)
			visited := int64(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Traverse(core.VertexID(sampler.Next())).Out(0).Out(0).Parallel(p).Run(ctx, snap)
				if err != nil {
					b.Fatal(err)
				}
				visited += int64(len(res))
			}
			b.ReportMetric(float64(visited)/float64(b.N), "results/op")
		})
	}
	b.Run("HandRolled", func(b *testing.B) {
		sampler := kron.NewDegreeSampler(edges, 7)
		visited := int64(0)
		for i := 0; i < b.N; i++ {
			var res []core.VertexID
			it := snap.Neighbors(core.VertexID(sampler.Next()), 0)
			for it.Next() {
				it2 := snap.Neighbors(it.Dst(), 0)
				for it2.Next() {
					res = append(res, it2.Dst())
				}
			}
			visited += int64(len(res))
		}
		b.ReportMetric(float64(visited)/float64(b.N), "results/op")
	})
	b.Run("BuilderDedupLimit", func(b *testing.B) {
		// The server-shaped query: unique friends-of-friends, first 20.
		sampler := kron.NewDegreeSampler(edges, 7)
		for i := 0; i < b.N; i++ {
			if _, err := core.Traverse(core.VertexID(sampler.Next())).
				Out(0).Out(0).Dedup().Limit(20).Run(ctx, snap); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Morsel-driven parallel traversal: worker-pool sweep --------------------

// BenchmarkParallelTraversal sweeps the traversal engine's worker-pool
// width over a ≥100k-edge power-law graph (scale 15, avg degree 4) in both
// execution regimes:
//
//   - InMemory: pure CPU scaling — flat on a single-core host, grows with
//     cores elsewhere;
//   - OutOfCore: the resident set is capped at 16% and misses charge a
//     2ms cold-read device, so the speedup comes from workers overlapping
//     simulated fault latency — ≥2x at p=8 even on one core.
//
// Allocs/op is reported to track the pooled-EdgeIter fast path.
func BenchmarkParallelTraversal(b *testing.B) {
	const scale = 15
	edges := kron.Generate(scale, 4, 42, kron.DefaultParams)
	if len(edges) < 100_000 {
		b.Fatalf("fixture too small: %d edges", len(edges))
	}
	ctx := context.Background()

	runSweep := func(b *testing.B, snap *core.Snapshot, coldStart func()) {
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
				if coldStart != nil {
					coldStart()
				}
				sampler := kron.NewDegreeSampler(edges, 7)
				visited := int64(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Traverse(core.VertexID(sampler.Next())).
						Out(0).Out(0).Parallel(p).Run(ctx, snap)
					if err != nil {
						b.Fatal(err)
					}
					visited += int64(len(res))
				}
				b.ReportMetric(float64(visited)/float64(b.N), "results/op")
			})
		}
	}

	b.Run("InMemory", func(b *testing.B) {
		g, err := core.Open(core.Options{Workers: 256})
		if err != nil {
			b.Fatal(err)
		}
		defer g.Close()
		loadScaled(b, g, scale, edges)
		snap, err := g.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		defer snap.Release()
		runSweep(b, snap, nil)
	})

	b.Run("OutOfCore", func(b *testing.B) {
		// Reads slow enough (2ms) that a frontier stalled on one fault could
		// have expanded dozens of vertices — cold cloud block storage rather
		// than a local SSD: fault *overlap* is the effect under measurement.
		dev := iosim.NewDevice(iosim.Profile{Name: "ColdRead", ReadLatency: 2 * time.Millisecond, ReadBWBps: 200_000_000})
		cache := iosim.NewPageCache(dev, 1<<62)
		g, err := core.Open(core.Options{Workers: 256, PageCache: cache})
		if err != nil {
			b.Fatal(err)
		}
		defer g.Close()
		loadScaled(b, g, scale, edges)
		residentCap := int64(float64(g.AllocStats().AllocatedWords*8) * 0.16)
		snap, err := g.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		defer snap.Release()
		runSweep(b, snap, func() {
			// Each pool width starts from a cold resident set so no level
			// coasts on a predecessor's faults.
			cache.SetCap(1)
			cache.SetCap(residentCap)
		})
	})
}

// loadScaled loads a kron edge set over 2^scale vertices in batched
// transactions (one huge commit would hold the apply phase for seconds).
func loadScaled(b *testing.B, g *core.Graph, scale int, edges []kron.Edge) {
	b.Helper()
	tx, _ := g.Begin()
	for i := 0; i < 1<<scale; i++ {
		tx.AddVertex(nil)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(edges); lo += 8192 {
		hi := lo + 8192
		if hi > len(edges) {
			hi = len(edges)
		}
		tx, _ := g.Begin()
		for _, e := range edges[lo:hi] {
			tx.InsertEdge(core.VertexID(e.Src), 0, core.VertexID(e.Dst), nil)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Example of using the public API under load (doc benchmark) ------------

func BenchmarkPublicAPIMixed(b *testing.B) {
	g, err := livegraph.Open(livegraph.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	livegraph.Update(g, 3, func(tx *livegraph.Tx) error {
		for i := 0; i < 1000; i++ {
			tx.AddVertex(nil)
		}
		return nil
	})
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			v := livegraph.VertexID(rng.Intn(1000))
			if rng.Intn(10) < 3 {
				livegraph.Update(g, 10, func(tx *livegraph.Tx) error {
					return tx.InsertEdge(v, 0, livegraph.VertexID(rng.Intn(1000)), nil)
				})
			} else {
				livegraph.View(g, func(tx *livegraph.Tx) error {
					it := tx.Neighbors(v, 0)
					for it.Next() {
					}
					return nil
				})
			}
		}
	})
}
