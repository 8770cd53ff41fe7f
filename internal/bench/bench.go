// Package bench regenerates every table and figure of the paper's
// evaluation (§2.1 and §7): sixteen experiments, nothing the paper does
// not have. Each is a named function printing rows in the paper's format;
// cmd/lgbench exposes them on the command line and the repository root's
// bench_test.go wraps them in testing.B targets. It is a reproduction
// harness that prints tables and claims nothing: performance claims come
// from benchmark/ (see its README), and the latencies printed here are
// read from the engine's own instrument library, internal/obs.
//
// Default parameters are laptop-scale so the full suite completes in
// minutes; Config lets callers approach the paper's configuration. Absolute
// numbers will differ from the paper's testbed; what carries over is the
// shape (who wins, by what factor, where crossovers fall).
package bench

import (
	"context"
	"fmt"
	"io"
)

// Config parameterises all experiments.
type Config struct {
	Out io.Writer

	// Micro-benchmark (Figure 1).
	MinScale, MaxScale int // graph scales 2^min..2^max (paper: 20..26)
	ScanOps            int // adjacency list scans per measurement (paper: 1e8)

	// LinkBench (Tables 3–6, Figures 5–8).
	LBScale    int // base graph = 2^LBScale vertices, avg degree 4 (paper: 32M vertices)
	LBClients  int // latency-run clients (paper: 24)
	LBRequests int // requests per client (paper: 500K)

	// Out-of-core: resident set as a fraction of the in-memory footprint
	// (paper: 4GB ≈ 16% of LiveGraph's usage).
	OOCFrac float64

	// SNB (Tables 7–9).
	SNBPersons  int // paper: SF10 = 30M vertices
	SNBClients  int // paper: 48
	SNBRequests int // per client

	// Analytics (Table 10).
	PRIters int // PageRank iterations (paper: 20)
	Workers int // analytics threads (paper: 24)
}

// Default returns the laptop-scale configuration.
func Default(out io.Writer) Config {
	return Config{
		Out:      out,
		MinScale: 10, MaxScale: 14, ScanOps: 20000,
		LBScale: 13, LBClients: 8, LBRequests: 3000,
		OOCFrac:    0.16,
		SNBPersons: 400, SNBClients: 8, SNBRequests: 40,
		PRIters: 20, Workers: 8,
	}
}

// Experiment is a runnable reproduction of one table or figure. Run takes
// the caller's context (cmd/lgbench passes its process context) so the
// experiments that open transactions or wait on followers propagate a real
// cancellation signal instead of minting context.Background() mid-library.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, cfg Config)
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: adjacency list seek & scan latency across data structures", Fig1},
		{"tab3", "Table 3: LinkBench TAO latency in memory", func(ctx context.Context, c Config) { LinkBenchLatency(ctx, c, false, true) }},
		{"tab4", "Table 4: LinkBench DFLT latency in memory", func(ctx context.Context, c Config) { LinkBenchLatency(ctx, c, false, false) }},
		{"tab5", "Table 5: LinkBench TAO latency out of core", func(ctx context.Context, c Config) { LinkBenchLatency(ctx, c, true, true) }},
		{"tab6", "Table 6: LinkBench DFLT latency out of core", func(ctx context.Context, c Config) { LinkBenchLatency(ctx, c, true, false) }},
		{"fig5", "Figure 5: TAO throughput/latency vs clients", func(ctx context.Context, c Config) { ThroughputSweep(ctx, c, true) }},
		{"fig6", "Figure 6: DFLT throughput/latency vs clients", func(ctx context.Context, c Config) { ThroughputSweep(ctx, c, false) }},
		{"fig7a", "Figure 7a: LiveGraph client scalability", Fig7a},
		{"fig7b", "Figure 7b: TEL block size distribution", Fig7b},
		{"mem", "§7.2: memory footprint and compaction effectiveness", MemFootprint},
		{"fig8", "Figure 8: throughput vs write ratio (in-memory and out-of-core)", Fig8},
		{"ckpt", "§7.2: checkpointing under concurrent LinkBench load", Ckpt},
		{"tab7", "Table 7: SNB interactive throughput in memory", func(ctx context.Context, c Config) { SNBThroughput(ctx, c, false) }},
		{"tab8", "Table 8: SNB interactive throughput out of core", func(ctx context.Context, c Config) { SNBThroughput(ctx, c, true) }},
		{"tab9", "Table 9: SNB per-query latency", SNBQueryLatency},
		{"tab10", "Table 10: ETL + PageRank/ConnComp, in-situ vs CSR engine", Tab10},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func header(cfg Config, title string) {
	fmt.Fprintf(cfg.Out, "\n=== %s ===\n", title)
}

func row(cfg Config, format string, args ...any) {
	fmt.Fprintf(cfg.Out, format+"\n", args...)
}
