package bench

import (
	"context"
	"io"
	"strings"
	"testing"
)

// tiny returns a configuration small enough that every experiment finishes
// in a second or two, for smoke-testing the harness end to end.
func tiny(out io.Writer) Config {
	return Config{
		Out:      out,
		MinScale: 6, MaxScale: 6, ScanOps: 200,
		LBScale: 7, LBClients: 2, LBRequests: 100,
		OOCFrac:    0.2,
		SNBPersons: 40, SNBClients: 2, SNBRequests: 5,
		PRIters: 3, Workers: 2,
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 16 {
		t.Fatalf("%d experiments registered, want 16 (one per table/figure of the paper)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"fig1", "tab3", "tab4", "tab5", "tab6", "fig5", "fig6",
		"fig7a", "fig7b", "mem", "fig8", "ckpt", "tab7", "tab8", "tab9", "tab10"} {
		if !seen[want] {
			t.Fatalf("experiment %s missing", want)
		}
	}
	if _, ok := ByID("fig1"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found a ghost")
	}
}

// TestAllExperimentsSmoke runs every experiment at tiny scale and checks it
// produces output without panicking.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds each")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			cfg := tiny(&sb)
			e.Run(context.Background(), cfg)
			out := sb.String()
			if !strings.Contains(out, "===") {
				t.Fatalf("no header in output: %q", out)
			}
			if len(strings.Split(out, "\n")) < 3 {
				t.Fatalf("experiment %s produced almost no output:\n%s", e.ID, out)
			}
		})
	}
}

func TestFig1OutputShape(t *testing.T) {
	var sb strings.Builder
	cfg := tiny(&sb)
	Fig1(context.Background(), cfg)
	out := sb.String()
	for _, s := range []string{"TEL(LiveGraph)", "LSMT(RocksDB)", "B+Tree(LMDB)", "LinkedList(Neo4j)", "CSR"} {
		if !strings.Contains(out, s) {
			t.Fatalf("Fig1 output missing %s:\n%s", s, out)
		}
	}
}

func TestTELStoreConformance(t *testing.T) {
	s := newTELStore()
	s.AddEdge(1, 2, []byte("a"))
	s.AddEdge(1, 3, []byte("b"))
	s.AddEdge(1, 2, []byte("a2")) // upsert
	if s.NumEdges() != 2 {
		t.Fatalf("NumEdges %d", s.NumEdges())
	}
	if v, ok := s.GetEdge(1, 2); !ok || string(v) != "a2" {
		t.Fatalf("GetEdge %q %v", v, ok)
	}
	if d := s.Degree(1); d != 2 {
		t.Fatalf("Degree %d", d)
	}
	if !s.DeleteEdge(1, 2) || s.DeleteEdge(1, 2) {
		t.Fatal("delete semantics")
	}
	if d := s.Degree(1); d != 1 {
		t.Fatalf("Degree after delete %d", d)
	}
	// Growth across many inserts.
	for i := 0; i < 300; i++ {
		s.AddEdge(9, int64(i), nil)
	}
	if d := s.Degree(9); d != 300 {
		t.Fatalf("Degree(9) %d", d)
	}
}
