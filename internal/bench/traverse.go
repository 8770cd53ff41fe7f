package bench

// The parallel-traversal experiment: throughput of the morsel-driven
// frontier engine as the worker-pool width grows, on the workload the
// paper's design exists for — multi-hop scans over a live snapshot.
//
// Two regimes are measured over the same power-law graph:
//
//   - in-memory: every TEL access is a cache hit, so the sweep measures
//     pure CPU scaling (flat on a single-core host, near-linear until the
//     memory bus saturates on real hardware);
//   - out-of-core: the resident set is capped and every page miss charges
//     a simulated cold-read device, so parallel workers overlap fault
//     latency — this regime speeds up with workers even on one core,
//     because the waiting, not the computing, dominates.
//
// Reported per configuration: ns/op (one multi-hop traversal), edges/s
// (visible edges expanded across all hops), allocs/op.

import (
	"context"
	"runtime"
	"strconv"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/iosim"
	"livegraph/internal/workload/kron"
)

// ColdRead models a device whose reads are slow enough (2ms) that a
// frontier stalled on one fault could have expanded dozens of vertices —
// cold cloud block storage rather than a local SSD. Used only by the
// out-of-core traversal sweep, where fault *overlap* is the effect under
// measurement.
var ColdRead = iosim.Profile{
	Name:        "ColdRead",
	ReadLatency: 2 * time.Millisecond,
	ReadBWBps:   200_000_000,
}

// travParallelisms is the worker-pool sweep.
var travParallelisms = []int{1, 2, 4, 8}

// TraverseSweep runs the parallel-traversal experiment.
func TraverseSweep(ctx context.Context, cfg Config) {
	header(cfg, "Morsel-driven parallel traversal: two-hop throughput vs worker-pool width")
	edges := kron.Generate(cfg.TravScale, 4, 42, kron.DefaultParams)
	row(cfg, "graph: 2^%d vertices, %d edges; %d two-hop traversals per config; GOMAXPROCS=%d",
		cfg.TravScale, len(edges), cfg.TravOps, runtime.GOMAXPROCS(0))

	travRegime(ctx, cfg, "in-memory", edges, core.Options{Workers: 256}, nil)

	dev := iosim.NewDevice(ColdRead)
	cache := iosim.NewPageCache(dev, 1<<62)
	travRegime(ctx, cfg, "out-of-core", edges, core.Options{Workers: 256, PageCache: cache}, cache)
}

// travRegime loads the graph under opts, optionally caps the page cache to
// OOCFrac of the loaded footprint, and sweeps parallelism over repeated
// two-hop traversals from degree-sampled sources.
func travRegime(ctx context.Context, cfg Config, regime string, edges []kron.Edge, opts core.Options, cache *iosim.PageCache) {
	g, err := core.Open(opts)
	if err != nil {
		panic(err)
	}
	defer g.Close()
	n := int64(1) << uint(cfg.TravScale)
	tx, _ := g.BeginCtx(ctx)
	for i := int64(0); i < n; i++ {
		tx.AddVertex(nil)
	}
	if err := tx.Commit(); err != nil {
		panic(err)
	}
	for lo := 0; lo < len(edges); lo += 8192 {
		hi := min(lo+8192, len(edges))
		tx, _ := g.BeginCtx(ctx)
		for _, e := range edges[lo:hi] {
			tx.InsertEdge(core.VertexID(e.Src), 0, core.VertexID(e.Dst), nil)
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
	}
	var residentCap int64
	if cache != nil {
		st := g.AllocStats()
		residentCap = int64(float64(st.AllocatedWords*8*2) * cfg.OOCFrac)
		cache.SetCap(residentCap)
	}
	snap, err := g.SnapshotCtx(ctx)
	if err != nil {
		panic(err)
	}
	defer snap.Release()

	var base float64
	for _, p := range travParallelisms {
		if cache != nil {
			// Every parallelism level starts from a cold cache; otherwise
			// the first level pays all the compulsory misses and later
			// levels coast on its residency.
			cache.SetCap(1)
			cache.SetCap(residentCap)
		}
		// Identical source sequence for every parallelism level.
		sampler := kron.NewDegreeSampler(edges, 7)
		srcs := make([]core.VertexID, cfg.TravOps)
		for i := range srcs {
			srcs[i] = core.VertexID(sampler.Next())
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		visited := int64(0)
		t0 := time.Now()
		for _, src := range srcs {
			hop1, err := core.Traverse(src).Out(0).Parallel(p).Run(ctx, snap)
			if err != nil {
				panic(err)
			}
			res, err := core.Traverse(src).Out(0).Out(0).Parallel(p).Run(ctx, snap)
			if err != nil {
				panic(err)
			}
			// Every result of a hop is one visible edge expanded.
			visited += int64(len(hop1)) + int64(len(res))
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		nsOp := float64(elapsed.Nanoseconds()) / float64(cfg.TravOps)
		edgesPerSec := float64(visited) / elapsed.Seconds()
		allocsOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(cfg.TravOps)
		speedup := 1.0
		if p == travParallelisms[0] {
			base = nsOp
		} else if nsOp > 0 {
			speedup = base / nsOp
		}
		row(cfg, "%-12s parallel=%d  %12.0f ns/op  %12.0f edges/s  %8.0f allocs/op  (%.2fx vs p=1)",
			regime, p, nsOp, edgesPerSec, allocsOp, speedup)
		cfg.record(Metric{
			Experiment:  "trav",
			Name:        regime + "/parallel=" + strconv.Itoa(p),
			NsPerOp:     nsOp,
			EdgesPerSec: edgesPerSec,
			AllocsPerOp: allocsOp,
			Extra:       map[string]float64{"speedup_vs_p1": speedup, "edges": float64(len(edges))},
		})
	}
}
