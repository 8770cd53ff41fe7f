package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"livegraph/internal/iosim"
	"livegraph/internal/storage"
)

// tiny returns a configuration small enough that every experiment finishes
// in a second or two, for smoke-testing the harness end to end.
func tiny(out io.Writer) Config {
	return Config{
		Out:      out,
		MinScale: 6, MaxScale: 6, ScanOps: 200,
		LBScale: 6, LBClients: 2, LBRequests: 100,
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
			if e.ID == "fig7b" {
				checkBlockSizes(t, out)
			}
		})
	}
}

// checkBlockSizes checks fig7b's table — rows of a block size and a count:
// every size is the size of one of the allocator's classes, and the rows
// add up to the allocated bytes and blocks the table's last line reports.
func checkBlockSizes(t *testing.T, out string) {
	t.Helper()
	classBytes := map[string]int64{}
	for c := 0; c < storage.NumClasses; c++ {
		b := int64(storage.WordCap(c) * 8)
		classBytes[fmtBytes(b)] = b
	}
	var rows, blocks, bytes int64
	var allocated string
	var allocatedBlocks int64
	for _, line := range strings.Split(out, "\n") {
		if _, err := fmt.Sscanf(line, "allocated: %s in %d blocks", &allocated, &allocatedBlocks); err == nil {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasSuffix(f[0], "B") {
			continue
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		rows++
		b, ok := classBytes[f[0]]
		if !ok {
			t.Errorf("fig7b prints block size %s, which no class has", f[0])
		}
		blocks += n
		bytes += n * b
	}
	if rows == 0 || allocated == "" {
		t.Fatalf("fig7b printed no block sizes or no total:\n%s", out)
	}
	if blocks != allocatedBlocks || fmtBytes(bytes) != allocated {
		t.Errorf("fig7b rows add up to %s in %d blocks, its total is %s in %d", fmtBytes(bytes), blocks, allocated, allocatedBlocks)
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

// LinkBench's LiveGraph persists like its durable baselines: its WAL is on
// disk and pays the device; each baseline's log is synced — on disk, then
// on its device — once per window of writes; and the closer takes the
// directory away.
func TestLinkBenchLiveGraphIsDurable(t *testing.T) {
	systems, _, done := BuildSystems(tiny(io.Discard), iosim.Optane, false)
	g := systems[0].Graph
	if systems[0].Name != "LiveGraph" || g == nil {
		t.Fatalf("first system is %q, want LiveGraph", systems[0].Name)
	}
	dir := g.Dir()
	if dir == "" || g.WALAppendedBytes() == 0 {
		t.Fatalf("LiveGraph built volatile: dir=%q wal bytes=%d", dir, g.WALAppendedBytes())
	}
	for _, s := range systems[1:] {
		ds := s.Store.(*durableStore)
		st := ds.dev.Stats()
		syncs := int64(ds.writes / syncWindow)
		if syncs == 0 || st.Syncs != syncs || st.BytesWritten != syncs*int64(syncWindow*len(writeRecord)) {
			t.Fatalf("%s: %d writes billed %+v, want %d syncs of %d records", s.Name, ds.writes, st, syncs, syncWindow)
		}
	}
	done()
	if _, err := os.Stat(filepath.Dir(dir)); !os.IsNotExist(err) {
		t.Fatalf("closer left %s behind (stat err %v)", filepath.Dir(dir), err)
	}
}
