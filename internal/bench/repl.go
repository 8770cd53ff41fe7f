package bench

// The replication experiment: a durable primary under the LinkBench-style
// edge-insert write workload, shipping its WAL over real loopback HTTP to
// an in-memory follower. Measured:
//
//   - primary commit throughput (transactions/s and commit groups i.e.
//     epochs/s) during the write window;
//   - follower apply throughput (groups/s over the span from its first to
//     its last applied group) — the acceptance bar is that it stays
//     within 2x of the primary's group rate, i.e. the replica keeps up;
//   - steady-state staleness: epoch lag sampled during the write window
//     (mean and max), plus bytes shipped.
//
// The writers drive the engine directly (in-process): replication cost,
// not HTTP request handling, is the quantity under measurement — the
// stream itself still crosses a real TCP connection.

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/repl"
	"livegraph/internal/server"
)

// Replication runs the WAL-shipping experiment.
func Replication(ctx context.Context, cfg Config) {
	header(cfg, "WAL-shipping replication: follower apply throughput and staleness lag")

	dir, err := os.MkdirTemp("", "lg-repl-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	primary, err := core.Open(core.Options{Dir: dir, Backend: cfg.backend(), Workers: 256})
	if err != nil {
		panic(err)
	}
	defer primary.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	ps := server.New(primary)
	hs := &http.Server{Handler: ps}
	go hs.Serve(ln)
	defer hs.Close()

	follower, err := core.Open(core.Options{Workers: 256})
	if err != nil {
		panic(err)
	}
	defer follower.Close()
	ap := repl.NewApplier(follower, "http://"+ln.Addr().String())
	applyCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go ap.Run(applyCtx)

	// Write workload: LBClients writers, LBRequests transactions each,
	// every transaction inserting a small batch of random edges over a
	// fixed vertex population (power-of-two for cheap masking).
	const vertices = 1 << 16
	const edgesPerTx = 4
	clients, requests := cfg.LBClients, cfg.LBRequests
	row(cfg, "writers=%d txs/writer=%d edges/tx=%d", clients, requests, edgesPerTx)

	// Lag sampler: runs through the write window.
	var lagMu sync.Mutex
	var lagSum, lagMax, lagSamples int64
	sampleDone := make(chan struct{})
	samplerStop := make(chan struct{})
	go func() {
		defer close(sampleDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				lag := primary.ReadEpoch() - follower.ReadEpoch()
				if lag < 0 {
					lag = 0
				}
				lagMu.Lock()
				lagSum += lag
				if lag > lagMax {
					lagMax = lag
				}
				lagSamples++
				lagMu.Unlock()
			}
		}
	}()

	applyStart := time.Now()
	writeStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < requests; i++ {
				tx, err := primary.BeginCtx(ctx)
				if err != nil {
					return
				}
				for e := 0; e < edgesPerTx; e++ {
					src := core.VertexID(rng.Int63() & (vertices - 1))
					dst := core.VertexID(rng.Int63() & (vertices - 1))
					tx.InsertEdge(src, 0, dst, nil)
				}
				if err := tx.Commit(); err != nil {
					tx.Abort()
				}
			}
		}(int64(c) + 1)
	}
	wg.Wait()
	writeElapsed := time.Since(writeStart)
	close(samplerStop)
	<-sampleDone

	// Let the follower drain, then measure its span.
	target := primary.ReadEpoch()
	deadline := time.Now().Add(30 * time.Second)
	for follower.ReadEpoch() < target {
		if time.Now().After(deadline) {
			row(cfg, "WARNING: follower stalled at epoch %d of %d", follower.ReadEpoch(), target)
			break
		}
		time.Sleep(time.Millisecond)
	}
	applyElapsed := time.Since(applyStart)

	commits := primary.Stats().Commits.Load()
	groups := primary.ReadEpoch()
	applied := ap.Stats.AppliedGroups.Load()
	bytes := ap.Stats.AppliedBytes.Load()
	commitTps := float64(commits) / writeElapsed.Seconds()
	commitGps := float64(groups) / writeElapsed.Seconds()
	applyGps := float64(applied) / applyElapsed.Seconds()
	lagMean := 0.0
	if lagSamples > 0 {
		lagMean = float64(lagSum) / float64(lagSamples)
	}
	ratio := 0.0
	if commitGps > 0 {
		ratio = applyGps / commitGps
	}

	row(cfg, "primary   %10.0f tx/s  %10.0f groups/s  (%d commits, %d epochs in %v)",
		commitTps, commitGps, commits, groups, writeElapsed.Round(time.Millisecond))
	row(cfg, "follower  %10.0f groups/s applied  (%d groups, %.1f MB shipped, caught up in %v)",
		applyGps, applied, float64(bytes)/1e6, applyElapsed.Round(time.Millisecond))
	row(cfg, "staleness mean=%.1f epochs  max=%d epochs  apply/commit=%.2fx",
		lagMean, lagMax, ratio)

	cfg.record(Metric{
		Experiment: "repl",
		Name:       "primary",
		Extra: map[string]float64{
			"tx_per_sec":     commitTps,
			"groups_per_sec": commitGps,
		},
	})
	cfg.record(Metric{
		Experiment: "repl",
		Name:       "follower",
		Extra: map[string]float64{
			"apply_groups_per_sec": applyGps,
			"apply_vs_commit":      ratio,
			"lag_epochs_mean":      lagMean,
			"lag_epochs_max":       float64(lagMax),
			"shipped_bytes":        float64(bytes),
		},
	})
}
