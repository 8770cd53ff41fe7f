// Command lgbench regenerates the tables and figures of the LiveGraph
// paper's evaluation.
//
// Usage:
//
//	lgbench -list
//	lgbench -exp fig1
//	lgbench -exp all -scale 16 -clients 24 -requests 50000
//
// Default parameters are laptop-scale; raise -scale/-clients/-requests/
// -snb-persons to approach the paper's configuration (§7.1: a 32M-vertex
// base graph, 24 clients, 500K requests per client, SNB SF10).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"livegraph/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list       = flag.Bool("list", false, "list experiments")
		scale      = flag.Int("scale", 13, "LinkBench base graph scale (2^scale vertices)")
		clients    = flag.Int("clients", 8, "client threads")
		requests   = flag.Int("requests", 3000, "requests per client")
		scanOps    = flag.Int("scans", 20000, "micro-benchmark scans per measurement")
		minScale   = flag.Int("min-scale", 10, "micro-benchmark smallest graph scale")
		maxScale   = flag.Int("max-scale", 14, "micro-benchmark largest graph scale")
		snbPersons = flag.Int("snb-persons", 400, "SNB dataset size (persons)")
		snbReqs    = flag.Int("snb-requests", 40, "SNB requests per client")
		oocFrac    = flag.Float64("ooc-frac", 0.16, "out-of-core resident fraction")
		prIters    = flag.Int("pr-iters", 20, "PageRank iterations")
		workers    = flag.Int("workers", 8, "analytics worker threads")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "lgbench: -exp required (or -list); e.g. lgbench -exp fig1")
		os.Exit(2)
	}

	cfg := bench.Default(os.Stdout)
	cfg.LBScale = *scale
	cfg.LBClients = *clients
	cfg.LBRequests = *requests
	cfg.ScanOps = *scanOps
	cfg.MinScale = *minScale
	cfg.MaxScale = *maxScale
	cfg.SNBPersons = *snbPersons
	cfg.SNBClients = *clients
	cfg.SNBRequests = *snbReqs
	cfg.OOCFrac = *oocFrac
	cfg.PRIters = *prIters
	cfg.Workers = *workers

	// The process context: experiments propagate it into transactions and
	// replication appliers, so Ctrl-C unwinds lock waits instead of leaving
	// goroutines spinning until exit. Once cancelled, stop() restores the
	// default SIGINT disposition so a second Ctrl-C kills an experiment
	// whose hot loop never blocks (and so never observes ctx).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() { <-ctx.Done(); stop() }()

	run := func(e bench.Experiment) {
		t0 := time.Now()
		e.Run(ctx, cfg)
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
	} else {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "lgbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		run(e)
	}
}
