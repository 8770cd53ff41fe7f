package core

// Delta-checkpoint crash matrix and recovery equivalence. The matrix
// mirrors ckpt_crash_test.go but drives the incremental path: the
// crashing checkpoint is a delta (delta-tmp / delta-durable windows), or
// a forced rebase on top of a live chain (snap-* windows with deltas to
// lose). The equivalence test is the contract the whole design rests on:
// recovering from base + delta chain must land on exactly the state a
// full-snapshot recovery lands on.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"livegraph/internal/disk"
)

// deltaCkptOpts forces the incremental path: rebase only when literally
// every vertex is dirty or the (long) chain fills.
var deltaCkptOpts = CkptOptions{RebaseFraction: 1, MaxChain: 64}

func openCkptGraph(t *testing.T, dir string, b disk.Backend, ck CkptOptions) *Graph {
	t.Helper()
	g, err := Open(Options{Dir: dir, Backend: b, Workers: 32, CompactEvery: -1, Ckpt: ck})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// deltaStages: the two windows unique to the incremental path plus the
// shared meta/prune windows, crossed with both backends.
var deltaStages = []string{"delta-tmp", "delta-durable", "meta-durable", "pruned"}

func TestDeltaCheckpointCrashMatrix(t *testing.T) {
	for bname, mk := range crashBackends() {
		for _, stage := range deltaStages {
			t.Run(bname+"/"+stage, func(t *testing.T) {
				dir := t.TempDir()
				g := openCkptGraph(t, dir, mk(), deltaCkptOpts)
				seedAndCommit(t, g, 6)
				// Filler vertices keep the dirty fraction below 1 even when
				// the k=7..12 commits touch every seed vertex — the
				// checkpoint under test must be a delta.
				filler, _ := g.Begin()
				for i := 0; i < 64; i++ {
					filler.AddVertex(nil)
				}
				if err := filler.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := g.Checkpoint(); err != nil { // full base
					t.Fatal(err)
				}
				for k := 7; k <= 12; k++ {
					tx, _ := g.Begin()
					for _, e := range crashEdges(k) {
						tx.InsertEdge(e[0], 0, e[1], []byte{byte(k)})
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}

				target := stage
				ckptCrashHook = func(s string) error {
					if s == target {
						return errInjectedCrash
					}
					return nil
				}
				err := g.Checkpoint()
				ckptCrashHook = nil
				if !errors.Is(err, errInjectedCrash) {
					t.Fatalf("delta checkpoint with %s crash = %v, want injected crash", stage, err)
				}
				// Retry on the SAME graph: the drained journal must have
				// been re-marked, so the retried checkpoint still carries
				// every post-base change.
				if err := g.Checkpoint(); err != nil {
					t.Fatalf("checkpoint retry after %s crash: %v", stage, err)
				}
				epochAtCrash := g.ReadEpoch()
				g.Close()

				g2 := openCkptGraph(t, dir, mk(), deltaCkptOpts)
				defer g2.Close()
				if got := g2.ReadEpoch(); got != epochAtCrash {
					t.Fatalf("recovered to epoch %d, want %d", got, epochAtCrash)
				}
				verifyEdges(t, g2, 12)
				assertNoStrayTmp(t, dir)
				// And the chain keeps extending after recovery.
				tx, _ := g2.Begin()
				if err := tx.InsertEdge(0, 0, 9999, nil); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("post-recovery commit: %v", err)
				}
				if err := g2.Checkpoint(); err != nil {
					t.Fatalf("post-recovery checkpoint: %v", err)
				}
			})
		}
	}
}

// TestRebaseCrashMatrix crashes the forced rebase (a full snapshot written
// while a delta chain is live) at every full-path window: until the meta
// swap lands, recovery must come up from the OLD base + chain.
func TestRebaseCrashMatrix(t *testing.T) {
	chainOpts := CkptOptions{RebaseFraction: 1, MaxChain: 2}
	for bname, mk := range crashBackends() {
		for _, stage := range ckptStages {
			t.Run(bname+"/"+stage, func(t *testing.T) {
				dir := t.TempDir()
				g := openCkptGraph(t, dir, mk(), chainOpts)
				seedAndCommit(t, g, 4)
				if err := g.Checkpoint(); err != nil { // full base
					t.Fatal(err)
				}
				// Two delta links fill the chain (MaxChain=2).
				for k := 5; k <= 6; k++ {
					tx, _ := g.Begin()
					for _, e := range crashEdges(k) {
						tx.InsertEdge(e[0], 0, e[1], []byte{byte(k)})
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					if err := g.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				if got := g.CkptStats().Deltas.Load(); got != 2 {
					t.Fatalf("chain setup wrote %d deltas, want 2", got)
				}
				tx, _ := g.Begin()
				for _, e := range crashEdges(7) {
					tx.InsertEdge(e[0], 0, e[1], []byte{7})
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}

				target := stage
				ckptCrashHook = func(s string) error {
					if s == target {
						return errInjectedCrash
					}
					return nil
				}
				err := g.Checkpoint() // chain full: forced rebase
				ckptCrashHook = nil
				if !errors.Is(err, errInjectedCrash) {
					t.Fatalf("rebase with %s crash = %v, want injected crash", stage, err)
				}
				epochAtCrash := g.ReadEpoch()
				g.Close()

				g2 := openCkptGraph(t, dir, mk(), chainOpts)
				defer g2.Close()
				if got := g2.ReadEpoch(); got != epochAtCrash {
					t.Fatalf("recovered to epoch %d, want %d", got, epochAtCrash)
				}
				verifyEdges(t, g2, 7)
				assertNoStrayTmp(t, dir)
			})
		}
	}
}

// graphStateString canonicalises the logical graph state — every visible
// vertex payload and every live edge with its properties — so two
// recoveries can be compared for exact equivalence. Labels and edges are
// sorted: equivalence is about state, not internal iteration order.
func graphStateString(t *testing.T, g *Graph) string {
	t.Helper()
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	var b strings.Builder
	nv := snap.NumVertices()
	fmt.Fprintf(&b, "nv=%d\n", nv)
	for v := int64(0); v < nv; v++ {
		data, ok := snap.VertexData(VertexID(v))
		var labels []Label
		if ll := g.eindex.Get(v); ll != nil {
			if ls := ll.entries.Load(); ls != nil {
				for _, e := range *ls {
					if snap.Degree(VertexID(v), e.label) > 0 {
						labels = append(labels, e.label)
					}
				}
			}
		}
		if !ok && len(labels) == 0 {
			continue
		}
		fmt.Fprintf(&b, "v%d ok=%v data=%x\n", v, ok, data)
		sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
		for _, l := range labels {
			type edge struct {
				dst   VertexID
				props string
			}
			var edges []edge
			snap.ScanNeighbors(VertexID(v), l, func(dst VertexID, props []byte) bool {
				edges = append(edges, edge{dst, fmt.Sprintf("%x", props)})
				return true
			})
			sort.Slice(edges, func(i, j int) bool { return edges[i].dst < edges[j].dst })
			fmt.Fprintf(&b, "  l%d %v\n", l, edges)
		}
	}
	return b.String()
}

// mutateRound applies one deterministic batch of every mutation kind —
// vertex payload rewrite, vertex delete, edge insert, edge upsert, edge
// delete — so the equivalence test exercises erasure, not just growth.
func mutateRound(t *testing.T, g *Graph, r int) {
	t.Helper()
	tx, _ := g.Begin()
	base := VertexID((r * 7) % 16)
	if err := tx.PutVertex(base, []byte{0xA0, byte(r)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertEdge(base, 1, VertexID(2000+r), []byte{byte(r)}); err != nil {
		t.Fatal(err)
	}
	// Upsert an edge seedAndCommit created (k=2+r inserts src (2+r)%16 ->
	// 1002+r), and delete another (k=3+r inserts (3+r)%16 -> 1003+r).
	if err := tx.AddEdge(VertexID((2+r)%16), 0, VertexID(1002+r), []byte{0x50, byte(r)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteEdge(VertexID((3+r)%16), 0, VertexID(1003+r)); err != nil {
		t.Fatal(err)
	}
	if r == 2 {
		if err := tx.DeleteVertex(15); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaRecoveryEquivalence drives the identical workload through two
// graphs — one checkpointing incrementally (base + delta per round), one
// forced full every round — crashes neither, reopens both, and requires
// the recovered states to match exactly. Trailing un-checkpointed commits
// verify WAL replay composes with chain replay the same way it composes
// with a full snapshot.
func TestDeltaRecoveryEquivalence(t *testing.T) {
	for bname, mk := range crashBackends() {
		t.Run(bname, func(t *testing.T) {
			dirs := map[string]string{"delta": t.TempDir(), "full": t.TempDir()}
			opts := map[string]CkptOptions{
				"delta": deltaCkptOpts,
				"full":  {DisableDelta: true},
			}
			for _, mode := range []string{"delta", "full"} {
				g := openCkptGraph(t, dirs[mode], mk(), opts[mode])
				seedAndCommit(t, g, 12)
				if err := g.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < 3; r++ {
					mutateRound(t, g, r)
					if err := g.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				// Trailing commits past the last checkpoint: recovered via
				// WAL replay on top of the chain (or snapshot).
				for k := 13; k <= 14; k++ {
					tx, _ := g.Begin()
					for _, e := range crashEdges(k) {
						tx.InsertEdge(e[0], 0, e[1], []byte{byte(k)})
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				if mode == "delta" {
					if got := g.CkptStats().Deltas.Load(); got != 3 {
						t.Fatalf("delta graph wrote %d deltas, want 3", got)
					}
				} else if got := g.CkptStats().Fulls.Load(); got != 4 {
					t.Fatalf("full graph wrote %d fulls, want 4", got)
				}
				g.Close()
			}
			// The delta dir must actually hold a chain.
			if chain, _ := filepath.Glob(filepath.Join(dirs["delta"], "ckpt-*.delta")); len(chain) != 3 {
				t.Fatalf("delta dir chain = %v, want 3 files", chain)
			}

			gd := openCkptGraph(t, dirs["delta"], mk(), opts["delta"])
			defer gd.Close()
			gf := openCkptGraph(t, dirs["full"], mk(), opts["full"])
			defer gf.Close()
			if gd.ReadEpoch() != gf.ReadEpoch() {
				t.Fatalf("recovered epochs diverge: delta %d, full %d", gd.ReadEpoch(), gf.ReadEpoch())
			}
			sd, sf := graphStateString(t, gd), graphStateString(t, gf)
			if sd != sf {
				t.Fatalf("chain recovery diverged from full-snapshot recovery:\n-- delta --\n%s\n-- full --\n%s", sd, sf)
			}
		})
	}
}

// TestRebaseTriggers pins both rebase conditions: the chain-length cap
// and the dirty-fraction threshold.
func TestRebaseTriggers(t *testing.T) {
	t.Run("chain-length", func(t *testing.T) {
		g := openCkptGraph(t, t.TempDir(), disk.NewSim(nil), CkptOptions{RebaseFraction: 1, MaxChain: 2})
		defer g.Close()
		seedAndCommit(t, g, 3)
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for k := 4; k <= 6; k++ {
			tx, _ := g.Begin()
			for _, e := range crashEdges(k) {
				tx.InsertEdge(e[0], 0, e[1], nil)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := g.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		st := g.CkptStats()
		if f, d := st.Fulls.Load(), st.Deltas.Load(); f != 2 || d != 2 {
			t.Fatalf("fulls=%d deltas=%d, want 2 fulls (base + chain-cap rebase) and 2 deltas", f, d)
		}
		if cl := st.ChainLen.Load(); cl != 0 {
			t.Fatalf("chain length after rebase = %d, want 0", cl)
		}
		if deltas, _ := filepath.Glob(filepath.Join(g.Dir(), "ckpt-*.delta")); len(deltas) != 0 {
			t.Fatalf("rebase did not prune the chain: %v", deltas)
		}
	})
	t.Run("dirty-fraction", func(t *testing.T) {
		// A threshold below one vertex's fraction forces every checkpoint
		// full, no matter how small the change.
		g := openCkptGraph(t, t.TempDir(), disk.NewSim(nil), CkptOptions{RebaseFraction: 1e-9, MaxChain: 64})
		defer g.Close()
		seedAndCommit(t, g, 3)
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tx, _ := g.Begin()
		tx.InsertEdge(0, 0, 4242, nil)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st := g.CkptStats()
		if f, d := st.Fulls.Load(), st.Deltas.Load(); f != 2 || d != 0 {
			t.Fatalf("fulls=%d deltas=%d, want dirty-fraction rebase (2 fulls, 0 deltas)", f, d)
		}
	})
}
