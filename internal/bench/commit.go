package bench

// The commit-path experiment: durable group commit measured end to end
// through the storage backend seam. A concurrent edge-insert workload
// runs against the configured backend — "iosim" (the simulated device
// timing model the paper comparisons use) or "disk" (the real mmap
// segment backend, records msync'd and fsync'd before commits are
// acknowledged) — so simulated and real-hardware commit costs can be
// compared shape-for-shape. The run ends with a timed checkpoint,
// exercising the full tmp → fsync → rename → dir-fsync swap protocol on
// that backend.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/iosim"
	"livegraph/internal/metrics"
)

// Commit runs the durable commit-path experiment.
func Commit(ctx context.Context, cfg Config) {
	header(cfg, fmt.Sprintf("Commit path: durable group commit, %s backend", cfg.backendName()))

	clients, requests := cfg.LBClients, cfg.LBRequests
	const edgesPerTx = 4
	const srcsPerClient = 256
	row(cfg, "writers=%d txs/writer=%d edges/tx=%d backend=%s",
		clients, requests, edgesPerTx, cfg.backendName())
	row(cfg, "%-8s %12s %10s %10s %10s %10s %10s", "backend",
		"tx/s", "mean", "p99", "p999", "wal MB/s", "ckpt")

	dir, err := os.MkdirTemp("", "lg-commit-*")
	if err != nil {
		panic(err)
	}
	g, err := core.Open(core.Options{
		Dir:     dir,
		Device:  iosim.NewDevice(iosim.NAND),
		Backend: cfg.backend(),
		Workers: 256,
	})
	if err != nil {
		panic(err)
	}

	nv := int64(clients * srcsPerClient)
	{
		tx, err := g.BeginCtx(ctx)
		if err != nil {
			panic(err)
		}
		for v := int64(0); v < 2*nv; v++ {
			if _, err := tx.AddVertex(nil); err != nil {
				panic(err)
			}
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
			rng := rand.New(rand.NewSource(int64(c) + 11))
			base := int64(c * srcsPerClient)
			for i := 0; i < requests; i++ {
				tx, err := g.BeginCtx(ctx)
				if err != nil {
					return
				}
				for e := 0; e < edgesPerTx; e++ {
					// Disjoint per-client source ranges: no write-write
					// conflicts, the measurement is the durable commit
					// path, not aborts.
					src := core.VertexID(base + rng.Int63n(srcsPerClient))
					dst := core.VertexID(nv + rng.Int63n(nv))
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
	walBytes := g.WALAppendedBytes()

	ckptStart := time.Now()
	if err := g.Checkpoint(); err != nil {
		panic(err)
	}
	ckptDur := time.Since(ckptStart)

	thpt := float64(hist.Count()) / elapsed.Seconds()
	walRate := float64(walBytes) / (1 << 20) / elapsed.Seconds()
	row(cfg, "%-8s %12.0f %10v %10v %10v %10.1f %10v",
		cfg.backendName(), thpt,
		hist.Mean().Round(time.Microsecond),
		hist.Quantile(0.99).Round(time.Microsecond),
		hist.Quantile(0.999).Round(time.Microsecond),
		walRate, ckptDur.Round(time.Millisecond))
	cfg.record(Metric{
		Experiment: "commit",
		Name:       cfg.backendName(),
		NsPerOp:    float64(hist.Mean().Nanoseconds()),
		Extra: map[string]float64{
			"tx_per_sec":      thpt,
			"p99_ns":          float64(hist.Quantile(0.99).Nanoseconds()),
			"p999_ns":         float64(hist.Quantile(0.999).Nanoseconds()),
			"wal_bytes":       float64(walBytes),
			"wal_mb_per_sec":  walRate,
			"checkpoint_ms":   float64(ckptDur.Milliseconds()),
			"clients":         float64(clients),
			"requests_client": float64(requests),
		},
	})

	g.Close()
	os.RemoveAll(dir)
}
