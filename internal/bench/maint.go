package bench

// The background-maintenance experiment: the same sustained upsert-churn
// write workload (live state constant, garbage linear in time) runs
// against two maintenance regimes —
//
//   - off:    CompactEvery = -1, nothing ever compacts; the footprint
//             ceiling and the latency floor (no maintenance interference
//             at all, memory grows without bound);
//   - new:    the budgeted, morsel-parallel background scheduler
//             (pressure triggers + commit-count kick + wall-clock floor).
//
// Measured per regime: write throughput, mean/p99/p999 commit latency,
// steady-state allocator footprint at the end of the write window
// (no manual CompactNow before reading it — steady state is what the
// regime itself maintains), and the maintenance work/stats behind it.
// The scheduler buys a bounded footprint; the comparison shows what it
// costs in commit latency and throughput against doing nothing.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/metrics"
)

// Maint runs the background-maintenance experiment.
func Maint(ctx context.Context, cfg Config) {
	header(cfg, "Background maintenance: budgeted scheduler vs off")

	clients, requests := cfg.LBClients, cfg.LBRequests
	const srcsPerClient = 256
	const edgesPerTx = 4
	const dstFan = 16 // upsert targets per source: small => garbage-heavy
	compactEvery := cfg.MaintCompactEvery
	row(cfg, "writers=%d txs/writer=%d edges/tx=%d churn-srcs=%d compact-every=%d",
		clients, requests, edgesPerTx, clients*srcsPerClient, compactEvery)
	row(cfg, "%-8s %10s %10s %10s %10s %12s %7s %8s", "mode",
		"tx/s", "mean", "p99", "p999", "footprint", "passes", "yielded")

	type outcome struct {
		name      string
		thpt      float64
		mean, p99 time.Duration
	}
	var results []outcome

	runMode := func(name string, opts core.Options) {
		opts.Workers = 256
		g, err := core.Open(opts)
		if err != nil {
			panic(err)
		}
		defer g.Close()

		nv := int64(clients * srcsPerClient)
		seed := func(tx *core.Tx) error {
			for v := int64(0); v < nv+dstFan; v++ {
				if _, err := tx.AddVertex(nil); err != nil {
					return err
				}
			}
			return nil
		}
		{
			tx, err := g.BeginCtx(ctx)
			if err != nil {
				panic(err)
			}
			if err := seed(tx); err != nil {
				panic(err)
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}

		hist := &metrics.Histogram{}
		props := make([]byte, 32)
		start := time.Now()
		var wg sync.WaitGroup
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c) + 7))
				base := int64(c * srcsPerClient)
				for i := 0; i < requests; i++ {
					tx, err := g.BeginCtx(ctx)
					if err != nil {
						return
					}
					for e := 0; e < edgesPerTx; e++ {
						// Disjoint per-client source ranges: no write-write
						// conflicts, the measurement is maintenance
						// interference, not aborts.
						src := core.VertexID(base + rng.Int63n(srcsPerClient))
						dst := core.VertexID(nv + rng.Int63n(dstFan))
						if err := tx.AddEdge(src, 0, dst, props); err != nil {
							tx.Abort()
							return
						}
					}
					t0 := time.Now()
					if err := tx.Commit(); err != nil {
						return
					}
					hist.Record(time.Since(t0))
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)

		// Steady state: what the regime itself maintains — no manual
		// compaction before reading the footprint. The scheduler gets a
		// bounded window to finish chewing the churn's tail (its slices
		// are budgeted precisely so they lag bursts); off has no
		// background work and settles instantly.
		settleStart := time.Now()
		if opts.CompactEvery >= 0 {
			for time.Since(settleStart) < 5*time.Second {
				dirty, dead := g.MaintPressure()
				if dirty <= 256 && dead <= 512<<10 {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		settle := time.Since(settleStart)

		al := g.AllocStats()
		footprint := al.AllocatedWords * 8
		mt := g.MaintStats()
		ops := int64(clients * requests)
		thpt := float64(ops) / elapsed.Seconds()
		row(cfg, "%-8s %10.0f %8sms %8sms %8sms %12s %7d %8d", name,
			thpt, metrics.Ms(hist.Mean()), metrics.Ms(hist.Quantile(0.99)),
			metrics.Ms(hist.Quantile(0.999)), fmtBytes(footprint),
			mt.Passes.Load(), mt.SlicesYielded.Load())
		cfg.record(Metric{
			Experiment: "maint",
			Name:       name,
			NsPerOp:    float64(hist.Mean().Nanoseconds()),
			Extra: map[string]float64{
				"tx_per_sec":         thpt,
				"p99_ns":             float64(hist.Quantile(0.99).Nanoseconds()),
				"p999_ns":            float64(hist.Quantile(0.999).Nanoseconds()),
				"footprint_bytes":    float64(footprint),
				"passes":             float64(mt.Passes.Load()),
				"slices":             float64(mt.Slices.Load()),
				"slices_yielded":     float64(mt.SlicesYielded.Load()),
				"entries_dead":       float64(mt.EntriesDead.Load()),
				"bytes_reclaimed":    float64(mt.BytesReclaimed.Load()),
				"pass_nanos":         float64(mt.PassNanos.Load()),
				"vertices_compacted": float64(mt.VerticesCompacted.Load()),
				"settle_ms":          float64(settle.Milliseconds()),
			},
		})
		results = append(results, outcome{name: name, thpt: thpt, mean: hist.Mean(), p99: hist.Quantile(0.99)})
	}

	runMode("off", core.Options{CompactEvery: -1})
	runMode("new", core.Options{CompactEvery: compactEvery})

	off, sched := results[0], results[1]
	fmt.Fprintf(cfg.Out, "scheduler vs off: p99 %.2fx, throughput %.2fx\n",
		ratio(float64(sched.p99), float64(off.p99)),
		ratio(sched.thpt, off.thpt))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
