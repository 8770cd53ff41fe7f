// Command lgserver runs a LiveGraph instance behind the HTTP/JSON API —
// the counterpart of the paper's benchmark server (§7.1, which fronts the
// embedded store with an RPC framework).
//
// Usage:
//
//	lgserver -addr :7450 -dir ./data -device optane
//	lgserver -addr :7451 -follow http://primary:7450
//
// With -dir set the graph is durable (WAL + checkpoints) and its WAL is
// served to replicas on GET /v1/repl/stream. With -follow set the process
// runs a read replica instead: an in-memory graph fed by the primary's
// replication stream, serving every read endpoint at its applied epoch
// and rejecting writes with 403.
//
// SIGINT shuts down gracefully: in-flight requests (including group
// commits) and open replication streams drain before the WAL closes.
// See internal/server for the endpoint reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/disk"
	"livegraph/internal/iosim"
	"livegraph/internal/repl"
	"livegraph/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":7450", "listen address")
		dir       = flag.String("dir", "", "data directory (empty = volatile in-memory)")
		device    = flag.String("device", "null", "simulated persistence device: null, optane, nand (iosim backend only)")
		backendF  = flag.String("backend", "iosim", "storage backend: iosim (simulated device timing) or disk (real mmap segments + fsync; needs -dir)")
		workers   = flag.Int("workers", 256, "max concurrent transactions")
		history   = flag.Int64("history", 0, "temporal history retention (epochs)")
		follow    = flag.String("follow", "", "primary base URL; run as a read replica of it")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		pprofF    = flag.Bool("pprof", false, "serve /debug/pprof/* (goroutine stacks, heap, CPU profiles)")
		traceRate = flag.Float64("trace-sample", 0, "trace sample rate in (0,1]; 0 = default 1/64, negative disables tracing")
		slowOp    = flag.Duration("slowop", 0, "slow-op capture threshold; 0 = default 100ms, negative disables")
	)
	flag.Parse()

	var prof iosim.Profile
	switch *device {
	case "optane":
		prof = iosim.Optane
	case "nand":
		prof = iosim.NAND
	case "null":
		prof = iosim.Null
	default:
		fmt.Fprintf(os.Stderr, "lgserver: unknown device %q\n", *device)
		os.Exit(2)
	}
	var backend disk.Backend // nil = core's default iosim-backed sim
	switch *backendF {
	case "iosim":
	case "disk":
		backend = disk.NewReal()
	default:
		fmt.Fprintf(os.Stderr, "lgserver: unknown backend %q (iosim or disk)\n", *backendF)
		os.Exit(2)
	}
	if *follow != "" && *dir != "" {
		// The replica's state is a pure function of the primary's log;
		// its own WAL would immediately diverge on restart resync.
		fmt.Fprintln(os.Stderr, "lgserver: -follow runs an in-memory replica; -dir is not supported with it")
		os.Exit(2)
	}

	g, err := core.Open(core.Options{
		Dir:              *dir,
		Device:           iosim.NewDevice(prof),
		Backend:          backend,
		Workers:          *workers,
		HistoryRetention: *history,
		Obs: core.ObsOptions{
			TraceSampleRate: *traceRate,
			SlowOpThreshold: *slowOp,
		},
	})
	if err != nil {
		log.Fatalf("lgserver: open: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var s *server.Server
	if *follow != "" {
		ap := repl.NewApplier(g, *follow)
		s = server.NewFollower(g, ap)
		go func() {
			if err := ap.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Fatalf("lgserver: replication: %v", err)
			}
		}()
	} else {
		s = server.New(g)
	}
	s.EnablePprof = *pprofF

	srv := &http.Server{Addr: *addr, Handler: s}
	shutdownDone := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		log.Println("lgserver: draining and shutting down")
		cancel() // stop following (replica mode)
		dctx, dcancel := context.WithTimeout(context.Background(), *drain)
		defer dcancel()
		// Replication streams are long-lived: end them first so Shutdown's
		// connection drain (which also waits out in-flight group commits)
		// can complete.
		if err := s.Close(dctx); err != nil {
			log.Printf("lgserver: stream drain: %v", err)
		}
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("lgserver: shutdown: %v", err)
		}
		close(shutdownDone)
	}()

	mode := "in-memory"
	switch {
	case *follow != "":
		mode = "replica of " + *follow + ", in-memory"
	case *dir != "":
		mode = "durable at " + *dir + " (" + *backendF + " backend)"
	}
	log.Printf("lgserver: serving %s graph on %s (device %s)", mode, *addr, prof.Name)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-shutdownDone // WAL closes only after commits and streams drained
	if err := g.Close(); err != nil {
		log.Fatalf("lgserver: close: %v", err)
	}
}
