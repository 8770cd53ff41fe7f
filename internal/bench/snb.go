package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"livegraph/internal/analytics"
	"livegraph/internal/baseline/csr"
	"livegraph/internal/core"
	"livegraph/internal/iosim"
	"livegraph/internal/obs"
	"livegraph/internal/workload"
	"livegraph/internal/workload/snb"
)

func tempDir() (string, error) { return os.MkdirTemp("", "lgbench-*") }

// snbBackends builds the three SNB systems loaded with the identical
// dataset. ooc enables the paged-memory simulation for LiveGraph (the
// relational stand-ins are measured in memory, which only flatters them —
// Table 8's point is that LiveGraph OOC still beats Virtuoso in memory for
// the Overall mix).
func snbBackends(cfg Config, ooc bool) ([]snb.Backend, []*snb.Dataset) {
	opts := core.Options{Workers: 512}
	if ooc {
		dev := iosim.NewDevice(iosim.Optane)
		footprint := int64(cfg.SNBPersons) * 40 * 96
		opts.PageCache = iosim.NewPageCache(dev, int64(float64(footprint)*cfg.OOCFrac))
	}
	g, err := core.Open(opts)
	if err != nil {
		panic(err)
	}
	backends := []snb.Backend{
		&snb.LiveGraphBackend{G: g},
		snb.NewTableBackend(),
		snb.NewHeapBackend(),
	}
	var datasets []*snb.Dataset
	for _, b := range backends {
		ds, err := snb.Generate(b, snb.GenConfig{Persons: cfg.SNBPersons, Seed: 1})
		if err != nil {
			panic(err)
		}
		datasets = append(datasets, ds)
	}
	return backends, datasets
}

// SNBThroughput reproduces Tables 7 and 8: requests/second for the
// Complex-Only and Overall mixes across systems.
func SNBThroughput(_ context.Context, cfg Config, ooc bool) {
	tbl, mem := "Table 7", "in memory"
	if ooc {
		tbl, mem = "Table 8", "out of core (LiveGraph paged; stand-ins in memory)"
	}
	header(cfg, fmt.Sprintf("%s: SNB interactive throughput %s (reqs/s)", tbl, mem))
	row(cfg, "%-26s %14s %14s", "system", "Complex-Only", "Overall")
	backends, datasets := snbBackends(cfg, ooc)
	for i, b := range backends {
		complexReqs := cfg.SNBRequests / 4
		if complexReqs == 0 {
			complexReqs = 1
		}
		resC := snb.Run(b, datasets[i], snb.DriverConfig{
			Clients: cfg.SNBClients, Requests: complexReqs, Seed: 23, ComplexOnly: true,
		})
		resO := snb.Run(b, datasets[i], snb.DriverConfig{
			Clients: cfg.SNBClients, Requests: cfg.SNBRequests, Seed: 29,
		})
		row(cfg, "%-26s %14.1f %14.1f", b.Name(), resC.Throughput(), resO.Throughput())
	}
}

// SNBQueryLatency reproduces Table 9: average latency of complex reads 1
// and 13, short read 2, and update transactions.
func SNBQueryLatency(_ context.Context, cfg Config) {
	header(cfg, "Table 9: average latency of selected SNB queries (ms)")
	row(cfg, "%-26s %12s %12s %12s %12s", "system", "complex 1", "complex 13", "short 2", "updates")
	backends, datasets := snbBackends(cfg, false)
	for i, b := range backends {
		res := snb.Run(b, datasets[i], snb.DriverConfig{
			Clients: cfg.SNBClients, Requests: cfg.SNBRequests * 2, Seed: 31,
		})
		row(cfg, "%-26s %12s %12s %12s %12s", b.Name(),
			meanMs(res.Complex1), meanMs(res.Complex13), meanMs(res.Short2), meanMs(res.Updates))
	}
}

func meanMs(h *obs.Histogram) string {
	s := h.Snapshot()
	return workload.Ms(s.Mean())
}

// Tab10 reproduces Table 10: iterative analytics (PageRank, ConnComp) on
// the SNB person-knows subgraph, run in-situ on the LiveGraph snapshot vs
// exported to a CSR engine (the export time is the ETL column).
func Tab10(ctx context.Context, cfg Config) {
	header(cfg, "Table 10: ETL and execution times for analytics (ms)")
	g, err := core.Open(core.Options{Workers: 256})
	if err != nil {
		panic(err)
	}
	defer g.Close()
	lg := &snb.LiveGraphBackend{G: g}
	if _, err := snb.Generate(lg, snb.GenConfig{Persons: cfg.SNBPersons * 4, Seed: 1}); err != nil {
		panic(err)
	}

	snap, err := g.SnapshotCtx(ctx)
	if err != nil {
		panic(err)
	}
	defer snap.Release()
	view := analytics.SnapshotView{Snap: snap, Label: core.Label(snb.LKnows)}

	// In-situ analytics on the latest snapshot.
	t0 := time.Now()
	analytics.PageRank(view, cfg.PRIters, cfg.Workers)
	prInSitu := time.Since(t0)
	t0 = time.Now()
	ccLG := analytics.ConnComp(view, cfg.Workers)
	ccInSitu := time.Since(t0)

	// ETL to CSR (the Gemini path), then the same kernels.
	t0 = time.Now()
	g2 := csr.BuildFromScanner(snap.NumVertices(), func(fn func(src, dst int64)) {
		n := snap.NumVertices()
		for v := int64(0); v < n; v++ {
			snap.ScanNeighbors(core.VertexID(v), core.Label(snb.LKnows), func(dst core.VertexID, _ []byte) bool {
				fn(v, int64(dst))
				return true
			})
		}
	})
	etl := time.Since(t0)
	cv := analytics.CSRView{G: g2}
	t0 = time.Now()
	analytics.PageRank(cv, cfg.PRIters, cfg.Workers)
	prCSR := time.Since(t0)
	t0 = time.Now()
	ccCSR := analytics.ConnComp(cv, cfg.Workers)
	ccCSRd := time.Since(t0)

	// Sanity: both paths agree on the component structure.
	agree := true
	for i := range ccLG {
		if ccLG[i] != ccCSR[i] {
			agree = false
			break
		}
	}

	row(cfg, "%-12s %12s %12s", "", "LiveGraph", "CSR engine")
	row(cfg, "%-12s %12s %12s", "ETL", "-", fmtMs(etl))
	row(cfg, "%-12s %12s %12s", "PageRank", fmtMs(prInSitu), fmtMs(prCSR))
	row(cfg, "%-12s %12s %12s", "ConnComp", fmtMs(ccInSitu), fmtMs(ccCSRd))
	row(cfg, "kernel results agree: %v; ETL+PageRank on CSR = %s vs %s in situ",
		agree, fmtMs(etl+prCSR), fmtMs(prInSitu))
}

func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}
