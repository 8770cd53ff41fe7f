// Command benchmark is the repository's one fixed benchmark: four named
// workloads against the engine as shipped, gated end-to-end metrics from
// an untraced pass and per-layer metrics from a separate traced pass whose
// recorders all live in this directory. See README.md.
//
//	go run ./benchmark                       # every workload, gated pass
//	go run ./benchmark -trace                # every workload, traced pass
//	go run ./benchmark -workload tao_read -seed 7 -seconds 24 -trace 0
//	go run ./benchmark -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// createFile creates a result or span file.
func createFile(path string) (*os.File, error) {
	//lglint:ignore durablefs benchmark output is reportage, not engine state; no crash-consistency contract
	return os.Create(path)
}

// normalizeTrace lets -trace be given bare (go run ./benchmark -trace) or
// with a value (--trace 0|1, as the benchmark driver passes it).
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and print the result as one JSON object on the last line (default: all four)")
	seed := fs.Uint64("seed", 1, "seed of the graph, the request lists and the arrival schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics and a span file) instead of the gated pass")
	repeat := fs.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ...: -compare reads the repeat spread from them")
	out := fs.String("out", "", "directory for result and span files (default: a new temporary directory)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(normalizeTrace(os.Args[1:])); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}
	defs := workloads
	if *workload != "" {
		def := workloadByName(*workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{*def}
	}
	if *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "-seconds and -repeat must be at least 1")
		return 2
	}

	runtime.GOMAXPROCS(pinnedProcs)

	// Every data directory lives under one root that is removed on the way
	// out, including on SIGINT/SIGTERM.
	root, err := os.MkdirTemp("", "lgbench-data-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(root)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// The run cannot finish meaningfully and deferred clean-up does not
		// run on os.Exit: remove the data here. The engine may still be
		// creating files, so try more than once.
		for i := 0; i < 3 && os.RemoveAll(root) != nil; i++ {
		}
		os.Exit(130)
	}()
	ctx := context.Background()

	outDir := *out
	if outDir == "" {
		if outDir, err = os.MkdirTemp("", "lgbench-out-"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	file := resultFile{Env: environment(root, *seed, *seconds)}
	status := 0
	for i := range defs {
		for rep := 0; rep < *repeat; rep++ {
			in := genInputs(&defs[i], *seed+uint64(rep), *seconds, *trace == 1)
			var res *runResult
			if *trace == 1 {
				res, err = runTraced(ctx, in, root, outDir)
			} else {
				res, err = runUntraced(ctx, in, root)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", defs[i].name, err)
				return 1
			}
			printResult(os.Stderr, res)
			for _, m := range endToEnd {
				if *trace == 0 && res.Metrics[m.name].Value <= 0 {
					fmt.Fprintf(os.Stderr, "%s: %s not measured (too few samples in %.0f s?)\n", defs[i].name, m.name, *seconds)
					return 1
				}
			}
			file.Runs = append(file.Runs, res)
			if !res.Correct {
				status = 1
			}
		}
	}
	name := "results.json"
	if *trace == 1 {
		name = "results-trace.json"
	}
	path := filepath.Join(outDir, name)
	if err := writeJSONFile(path, &file); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "results: %s\n", path)

	if *workload != "" {
		// The driver's contract: one JSON object on the last line of stdout.
		r := file.Runs[0]
		line, _ := json.Marshal(map[string]any{
			"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
		})
		fmt.Println(string(line))
		return 0 // failures are in the object; the exit code says the run completed
	}
	return status
}

// resultFile is what -out receives and what -compare reads.
type resultFile struct {
	Env  map[string]string `json:"env"`
	Runs []*runResult      `json:"runs"`
}

func writeJSONFile(path string, v any) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printResult(w io.Writer, r *runResult) {
	pass := "gated"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass, seed %d, %.0f s) correct=%v attempted=%d failed=%d fail_frac=%.6f saturated=%v list=%s\n",
		r.Workload, pass, r.Seed, r.Seconds, r.Correct, r.Attempted, r.Failed,
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Saturated, r.ListHash)
	printMetrics(w, "  ", r.Metrics)
	printMetrics(w, "  (info) ", r.Info)
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  n:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Counts[k])
	}
	fmt.Fprintln(w)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", r.SpanFile)
	}
}

func printMetrics(w io.Writer, prefix string, m map[string]metricValue) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s%-34s %14.4f %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}
