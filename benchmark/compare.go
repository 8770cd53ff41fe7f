package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json, the contract the driver reads: -compare
// takes each gated metric's direction and bound from it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// metricRuns collects one metric's values over the gated runs of one
// workload in a result file (a file written with -repeat holds several).
func metricRuns(f *resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// verdict compares medians a (before) and b (after) of one metric.
// worse is by how much b is worse than a as a share of a (negative:
// better). A change past the bound is a regression; otherwise, when either
// side's own repeat spread exceeds the bound the pair cannot tell
// "unchanged" from "changed" and is reported unresolved.
func verdict(a, b []float64, higherBetter bool, bound float64) (worse, spread float64, word string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case worse > bound:
		word = "REGRESSED"
	case spread > bound:
		word = "unresolved"
	case worse < -bound:
		word = "improved"
	default:
		word = "unchanged"
	}
	return worse, spread, word
}

// compareFiles prints, per workload and gated metric, both medians, the
// change and the bound, and returns 1 when any metric breached its bound.
func compareFiles(pathA, pathB string, w io.Writer) int {
	var spec benchSpec
	var a, b resultFile
	for _, in := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(w, err)
			return 2
		}
	}
	fmt.Fprintf(w, "A: %s (git %s, %s)\nB: %s (git %s, %s)\n", pathA, a.Env["git_sha"], a.Env["cpu_model"], pathB, b.Env["git_sha"], b.Env["cpu_model"])
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "spread", "verdict")
	breaches := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := metricRuns(&a, wl.Name, m.Name), metricRuns(&b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s %8s  missing\n", wl.Name, m.Name, "-", "-", "-", "-", "-")
				breaches++
				continue
			}
			worse, spread, word := verdict(va, vb, m.Better == "higher", m.Bound)
			if word == "REGRESSED" {
				breaches++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+8.2f%% %7.1f%% %7.2f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*worse, 100*m.Bound, 100*spread, word)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d metric(s) breached their bound\n", breaches)
		return 1
	}
	return 0
}
