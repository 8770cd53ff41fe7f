package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// buildFanIn builds the adversarial-for-top-down shape: a seed vertex with
// edges to nSrc "source" vertices, each of which points at every one of
// nDst shared "target" vertices. A two-hop from the seed visits
// nSrc*nDst edges top-down but only nDst candidates bottom-up. Vertex IDs:
// 0 = seed, [1, nSrc] = sources, [nSrc+1, nSrc+nDst] = targets.
func buildFanIn(t testing.TB, opts Options, nSrc, nDst int) *Graph {
	t.Helper()
	g, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 1+nSrc+nDst; i++ {
			tx.AddVertex(nil)
		}
	})
	// Commit in batches so the fixture doesn't build one giant tx.
	for s := 1; s <= nSrc; s += 8 {
		lo, hi := s, s+8
		if hi > nSrc+1 {
			hi = nSrc + 1
		}
		mustCommit(t, g, func(tx *Tx) {
			for src := lo; src < hi; src++ {
				tx.InsertEdge(0, 0, VertexID(src), nil)
				for d := 0; d < nDst; d++ {
					tx.InsertEdge(VertexID(src), 0, VertexID(1+nSrc+d), nil)
				}
			}
		})
	}
	return g
}

func sortedIDs(in []VertexID) []VertexID {
	out := append([]VertexID(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameSet(t *testing.T, name string, got, want []VertexID) {
	t.Helper()
	gs, ws := sortedIDs(got), sortedIDs(want)
	if !sameIDs(gs, ws) {
		t.Errorf("%s: result set %v != reference %v", name, gs, ws)
	}
}

// equivalenceRows is the one table every way of running a hop answers to:
// each row is a traversal shape, run by checkEquivalence in every
// direction, at 1, 4 and 8 workers, with adaptive and 16-wide morsels, and
// compared with the one reference — forced top-down on one worker. before
// is the fixture's pre-churn epoch (the asof row's).
var equivalenceRows = []struct {
	name string
	mk   func(before int64) *Traversal
}{
	{"two-hop", func(int64) *Traversal { return Traverse(0, 1, 2, 3).Out(0).Out(0) }},
	{"three-hop", func(int64) *Traversal { return Traverse(7).Out(0).Out(0).Out(0) }},
	{"wide-frontier", func(int64) *Traversal { return Traverse(0).Out(0).Out(0) }}, // hub source
	{"filter-mid", func(int64) *Traversal {
		return Traverse(0).Out(0).Filter(func(r Reader, v VertexID) bool { return v%3 != 0 }).Out(0)
	}},
	{"filter-mid+dedup", func(int64) *Traversal {
		return Traverse(0).Out(0).Filter(func(r Reader, v VertexID) bool { return v%2 == 0 }).Out(0).Dedup()
	}},
	{"dedup", func(int64) *Traversal { return Traverse(0).Out(0).Out(0).Dedup() }},
	{"dedup-multi-source", func(int64) *Traversal { return Traverse(0, 5).Out(0).Out(0).Dedup() }},
	{"dedup-narrowed", func(int64) *Traversal { return narrowedDedup() }},
	{"filter", func(int64) *Traversal {
		return Traverse(0).Out(0).Out(0).Dedup().Filter(func(r Reader, v VertexID) bool { return v%2 == 0 })
	}},
	{"filterDst", func(int64) *Traversal {
		return Traverse(0).Out(0).Out(0).Dedup().FilterDst(func(v VertexID) bool { return v%3 != 0 })
	}},
	{"limit", func(int64) *Traversal { return Traverse(0).Out(0).Out(0).Dedup().Limit(5) }},
	{"limit-multiplicity", func(int64) *Traversal { return Traverse(0).Out(0).Out(0).Limit(17) }},
	{"asof", func(before int64) *Traversal { return Traverse(0).Out(0).Out(0).Dedup().AsOf(before) }},
}

// checkEquivalence is the invariant every expansion strategy must uphold,
// over equivalenceRows on g as it stands (post-churn; before is the epoch
// the churn followed): forced top-down, forced bottom-up and the adaptive
// executor, on any number of workers, return the reference's result —
//
//   - without Dedup or Limit, byte for byte (morsel outputs reassemble in
//     frontier order), and forced bottom-up is refused;
//   - with Dedup, the same set, each vertex once (pool and bottom-up passes
//     reorder within a hop; only top-down on one worker promises order);
//   - with Limit, the reference's count, drawn from the unlimited result.
//
// Under -race this is also what exercises the striped dedup set, the
// budget atomics and morsel.Run for data races. mustFind names the rows
// that may not come back empty on this fixture.
func checkEquivalence(t *testing.T, g *Graph, before int64, mustFind func(row string) bool) {
	ctx := context.Background()
	for _, row := range equivalenceRows {
		t.Run(row.name, func(t *testing.T) {
			mk := func() *Traversal { return row.mk(before) }
			var snap *Snapshot
			var err error
			if mk().hasAsOf {
				snap, err = g.SnapshotAt(before)
			} else {
				snap, err = g.Snapshot()
			}
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()

			ref, err := mk().Direction(DirectionTopDown).Parallel(1).Run(ctx, snap)
			if err != nil {
				t.Fatal(err)
			}
			if mustFind(row.name) && len(ref) == 0 {
				t.Fatal("fixture produced an empty reference")
			}
			dedup, limited := mk().dedup, mk().limit > 0
			var full map[VertexID]int // the unlimited reference, for Limit rows
			if limited {
				all, err := mk().Direction(DirectionTopDown).Parallel(1).Limit(0).Run(ctx, snap)
				if err != nil {
					t.Fatal(err)
				}
				full = multiset(all)
			}
			for _, dir := range []Direction{DirectionTopDown, DirectionBottomUp, DirectionAuto} {
				for _, par := range []int{1, 4, 8} {
					for _, ms := range []int{0, 16} {
						label := fmt.Sprintf("%v par=%d morsel=%d", dir, par, ms)
						got, err := mk().Direction(dir).Parallel(par).MorselSize(ms).Run(ctx, snap)
						if dir == DirectionBottomUp && !dedup {
							if !errors.Is(err, ErrBottomUpUnsupported) {
								t.Errorf("%s: err = %v, want ErrBottomUpUnsupported", label, err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						switch {
						case limited:
							if len(got) != len(ref) {
								t.Errorf("%s: %d results, reference has %d", label, len(got), len(ref))
							}
							for v, c := range multiset(got) {
								if full[v] < c || (dedup && c != 1) {
									t.Errorf("%s: emitted %d %d times, unlimited reference has it %d times", label, v, c, full[v])
								}
							}
						case dedup:
							sameSet(t, label, got, ref)
							for v, c := range multiset(got) {
								if c != 1 {
									t.Errorf("%s: dedup emitted %d %d times", label, v, c)
								}
							}
							if par == 1 && dir == DirectionTopDown && !sameIDs(got, ref) {
								t.Errorf("%s: sequential order drifted: %v != %v", label, got, ref)
							}
						default:
							if !sameIDs(got, ref) {
								t.Errorf("%s: result diverges from the reference (%d vs %d results)", label, len(got), len(ref))
							}
						}
					}
				}
			}
		})
	}
}

// TestDirectionEquivalence runs the equivalence table on the shape built
// to separate the directions: a dense fan-in, where auto goes bottom-up.
func TestDirectionEquivalence(t *testing.T) {
	g := buildFanIn(t, Options{HistoryRetention: 1 << 30}, 48, 12)
	before := g.ReadEpoch()
	mustCommit(t, g, func(tx *Tx) {
		// Post-epoch churn: a new edge and a deleted one. AsOf runs must
		// not see either change, and bottom-up's stale superset hint for
		// the deleted edge must be rejected by the forward confirm.
		v, err := tx.AddVertex(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.InsertEdge(1, 0, v, nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.DeleteEdge(3, 0, VertexID(49+5)); err != nil {
			t.Fatal(err)
		}
	})
	checkEquivalence(t, g, before, func(row string) bool {
		return row == "dedup" || row == "filterDst" || row == "asof" || row == "two-hop"
	})
}

// TestBottomUpUnsupported: forcing bottom-up on a traversal that cannot
// run it (no Dedup — bottom-up emits each destination at most once) is an
// error; auto silently stays top-down.
func TestBottomUpUnsupported(t *testing.T) {
	g := buildSocial(t)
	ctx := context.Background()
	snap, _ := g.Snapshot()
	defer snap.Release()

	if _, err := Traverse(0).Out(0).Direction(DirectionBottomUp).Run(ctx, snap); !errors.Is(err, ErrBottomUpUnsupported) {
		t.Fatalf("forced bottomup without Dedup err = %v, want ErrBottomUpUnsupported", err)
	}
	if _, err := Traverse(0).Out(0).Direction(DirectionAuto).Run(ctx, snap); err != nil {
		t.Fatalf("auto without Dedup must fall back to topdown: %v", err)
	}
}

// TestBottomUpExplainAttribution: a forced bottom-up hop reports
// direction "bottomup" with candidate/probe counters — and, on a pool, the
// pool — the same hop forced top-down reports "topdown" with dedup hits and
// zero bottom-up counters, and auto picks between them from the shape.
func TestBottomUpExplainAttribution(t *testing.T) {
	g := buildFanIn(t, Options{}, 16, 6)
	ctx := context.Background()
	snap, _ := g.Snapshot()
	defer snap.Release()

	_, ex, err := Traverse(0).Out(0).Out(0).Dedup().Direction(DirectionBottomUp).RunExplain(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	hop := ex.Hops[1]
	if hop.Direction != "bottomup" {
		t.Fatalf("forced bottomup hop direction = %q", hop.Direction)
	}
	if hop.Candidates == 0 || hop.HintProbes == 0 {
		t.Fatalf("bottomup hop reported no probe work: %+v", hop)
	}
	if hop.DedupHits != 0 {
		t.Fatalf("bottomup hop reported dedup hits: %+v", hop)
	}
	if ex.Direction != "bottomup" {
		t.Fatalf("requested direction = %q", ex.Direction)
	}

	_, ex, err = Traverse(0).Out(0).Out(0).Dedup().Direction(DirectionTopDown).RunExplain(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	hop = ex.Hops[1]
	if hop.Direction != "topdown" {
		t.Fatalf("forced topdown hop direction = %q", hop.Direction)
	}
	if hop.DedupHits == 0 {
		t.Fatalf("high-fan-in topdown hop reported no dedup hits: %+v", hop)
	}
	if hop.Candidates != 0 || hop.HintProbes != 0 {
		t.Fatalf("topdown hop reported bottom-up counters: %+v", hop)
	}

	// A bottom-up hop over enough candidates for two morsels runs on the
	// pool and says so, with the workers and morsels it ran.
	wide := buildFanIn(t, Options{}, 16, 3*bottomUpMorselMin)
	wsnap, _ := wide.Snapshot()
	defer wsnap.Release()
	res, ex, err := Traverse(0).Out(0).Out(0).Dedup().Direction(DirectionBottomUp).Parallel(4).RunExplain(ctx, wsnap)
	if err != nil || len(res) != 3*bottomUpMorselMin {
		t.Fatalf("wide bottomup: %d results, %v", len(res), err)
	}
	hop = ex.Hops[1]
	if hop.Direction != "bottomup" || !hop.Parallel || hop.Workers < 2 || hop.Morsels < 2 || hop.MorselSize == 0 {
		t.Fatalf("parallel bottomup hop reported %+v, want parallel with >= 2 workers and morsels", hop)
	}
	if hop.Candidates == 0 || hop.HintProbes == 0 {
		t.Fatalf("parallel bottomup hop reported no probe work: %+v", hop)
	}

	// Auto follows the shape, at the constants the engine ships with: the
	// seed hop (one vertex) stays top-down, a frontier dense against the
	// label's candidates flips to bottom-up, a sparse one does not.
	dense := buildFanIn(t, Options{}, 48, 12)
	dsnap, _ := dense.Snapshot()
	defer dsnap.Release()
	_, ex, err = Traverse(0).Out(0).Out(0).Dedup().RunExplain(ctx, dsnap)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Hops[0].Direction != "topdown" || ex.Hops[1].Direction != "bottomup" {
		t.Fatalf("auto on a dense fan-in ran [%s %s], want [topdown bottomup]", ex.Hops[0].Direction, ex.Hops[1].Direction)
	}
	sparse := openMem(t) // a tree: 20 mid vertices, two leaves of its own each
	mustCommit(t, sparse, func(tx *Tx) {
		for i := 0; i < 61; i++ {
			tx.AddVertex(nil)
		}
		for m := 1; m <= 20; m++ {
			tx.InsertEdge(0, 0, VertexID(m), nil)
			tx.InsertEdge(VertexID(m), 0, VertexID(19+2*m), nil)
			tx.InsertEdge(VertexID(m), 0, VertexID(20+2*m), nil)
		}
	})
	ssnap, _ := sparse.Snapshot()
	defer ssnap.Release()
	res, ex, err = Traverse(0).Out(0).Out(0).Dedup().RunExplain(ctx, ssnap)
	if err != nil || len(res) != 40 {
		t.Fatalf("sparse tree: %d results, %v", len(res), err)
	}
	if ex.Hops[0].Direction != "topdown" || ex.Hops[1].Direction != "topdown" {
		t.Fatalf("auto on a sparse frontier ran [%s %s], want [topdown topdown]", ex.Hops[0].Direction, ex.Hops[1].Direction)
	}
}

// TestPushdownEquivalenceAndExplain: a FilterDst compiles into the
// preceding hop's scan loop (pushdown in the plan), produces the same
// results as an equivalent Filter, and reordering past a Filter is
// surfaced in the plan.
func TestPushdownEquivalenceAndExplain(t *testing.T) {
	g := buildFanIn(t, Options{}, 24, 8)
	ctx := context.Background()
	snap, _ := g.Snapshot()
	defer snap.Release()

	keep := func(v VertexID) bool { return v%2 == 1 }
	viaFilter, err := Traverse(0).Out(0).Out(0).Dedup().
		Filter(func(r Reader, v VertexID) bool { return keep(v) }).Run(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	viaDst, err := Traverse(0).Out(0).Out(0).Dedup().FilterDst(keep).Run(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(sortedIDs(viaDst), sortedIDs(viaFilter)) {
		t.Fatalf("pushdown drifted: %v != %v", viaDst, viaFilter)
	}

	ex := Traverse(0).Out(0).Out(0).FilterDst(keep).Dedup().Explain()
	if ex.Hops[1].Pushdown != 1 {
		t.Fatalf("hop 1 pushdown = %d, want 1: %+v", ex.Hops[1].Pushdown, ex.Hops)
	}
	if !ex.Hops[2].Fused || ex.Hops[2].FusedInto != 1 {
		t.Fatalf("filterDst step not marked fused into hop 1: %+v", ex.Hops[2])
	}
	if ex.Hops[1].Reordered {
		t.Fatalf("no reorder happened but plan claims one: %+v", ex.Hops[1])
	}

	// FilterDst written after a Filter is hoisted ahead of it into the
	// hop's scan — licensed by FilterDst's purity contract and flagged.
	ex = Traverse(0).Out(0).
		Filter(func(Reader, VertexID) bool { return true }).
		FilterDst(keep).Explain()
	if ex.Hops[0].Pushdown != 1 || !ex.Hops[0].Reordered {
		t.Fatalf("reordered pushdown not flagged: %+v", ex.Hops[0])
	}
}

// TestFilterParallelEquivalence: the parallel Filter stage returns exactly
// what the sequential Filter returns, order included (morsels mark their
// own ranges; survivors are compacted in frontier order).
func TestFilterParallelEquivalence(t *testing.T) {
	g := buildFanIn(t, Options{}, 48, 12)
	ctx := context.Background()
	snap, _ := g.Snapshot()
	defer snap.Release()

	pred := func(r Reader, v VertexID) bool { return v%3 != 1 }
	seqRes, err := Traverse(0).Out(0).Out(0).Filter(pred).Run(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := Traverse(0).Out(0).Out(0).FilterParallel(pred).Parallel(4).Run(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(parRes, seqRes) {
		t.Fatalf("parallel filter drifted: %d vs %d results", len(parRes), len(seqRes))
	}
}

// TestDegreeStats validates the incrementally-maintained per-label degree
// statistics against ground truth across the three maintenance paths:
// live apply, compaction, and recovery rebuild.
func TestDegreeStats(t *testing.T) {
	g := buildFanIn(t, Options{}, 10, 4)
	// Ground truth: seed has 10 out-edges; each source has 4.
	st := g.LabelDegreeStats(0)
	if st.Lists != 11 {
		t.Fatalf("Lists = %d, want 11", st.Lists)
	}
	if st.Edges != 10+10*4 {
		t.Fatalf("Edges = %d, want 50", st.Edges)
	}
	if st.Entries != st.Edges {
		t.Fatalf("Entries = %d with no deletions, want %d", st.Entries, st.Edges)
	}
	// Targets is the reverse index's candidate count: 0 until an in-scan
	// has built the index, whatever has been written.
	if st.Targets != 0 {
		t.Fatalf("Targets = %d before any in-scan, want 0", st.Targets)
	}
	snap, _ := g.Snapshot()
	snap.ScanIn(11, 0, func(VertexID) bool { return true })
	snap.Release()
	if got := g.LabelDegreeStats(0).Targets; got != 10+4 {
		t.Fatalf("Targets = %d after the first in-scan, want 14 (10 sources + 4 targets)", got)
	}
	if st.AvgDegree < 4 || st.AvgDegree > 5 {
		t.Fatalf("AvgDegree = %v, want ~50/11", st.AvgDegree)
	}
	// p90 of {10, 4 x10} falls in the 4-7 bucket; the estimate is that
	// bucket's upper bound.
	if st.P90Degree < 4 || st.P90Degree > 15 {
		t.Fatalf("P90Degree = %d for degrees {10, 4x10}", st.P90Degree)
	}

	// Deletions shrink Edges but Entries keep counting (scan cost).
	mustCommit(t, g, func(tx *Tx) {
		if err := tx.DeleteEdge(1, 0, 11); err != nil {
			t.Fatal(err)
		}
	})
	st = g.LabelDegreeStats(0)
	if st.Edges != 49 {
		t.Fatalf("Edges after delete = %d, want 49", st.Edges)
	}
	if st.Entries <= 49 {
		t.Fatalf("Entries after delete = %d, must exceed visible edges", st.Entries)
	}

	// Compaction drops dead entries: Entries converges back toward Edges.
	g.CompactNow()
	st = g.LabelDegreeStats(0)
	if st.Edges != 49 {
		t.Fatalf("Edges after compaction = %d, want 49", st.Edges)
	}
	if st.Entries != 49 {
		t.Fatalf("Entries after compaction = %d, want 49", st.Entries)
	}

	// An aborted tx must not leak into the stats.
	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertEdge(1, 0, 12, nil); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if got := g.LabelDegreeStats(0).Edges; got != 49 {
		t.Fatalf("Edges after abort = %d, want 49", got)
	}
}

// TestDegreeStatsRecovery: reopening a durable graph rebuilds the degree
// statistics and the reverse hint index from the recovered TELs, so
// adaptive planning and bottom-up expansion survive a restart.
func TestDegreeStatsRecovery(t *testing.T) {
	dir := t.TempDir()
	g, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 6; i++ {
			tx.AddVertex(nil)
		}
		tx.InsertEdge(0, 0, 1, nil)
		tx.InsertEdge(0, 0, 2, nil)
		tx.InsertEdge(1, 0, 3, nil)
		tx.InsertEdge(2, 0, 3, nil)
		tx.InsertEdge(4, 7, 5, nil)
	})
	mustCommit(t, g, func(tx *Tx) {
		if err := tx.DeleteEdge(0, 0, 2); err != nil {
			t.Fatal(err)
		}
	})
	want := g.LabelDegreeStats(0)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	got := g2.LabelDegreeStats(0)
	if got.Lists != want.Lists || got.Edges != want.Edges {
		t.Fatalf("recovered stats %+v, want %+v", got, want)
	}
	if got7 := g2.LabelDegreeStats(7); got7.Edges != 1 || got7.Lists != 1 {
		t.Fatalf("recovered label-7 stats %+v", got7)
	}

	// The rebuilt reverse index must support bottom-up end to end.
	ctx := context.Background()
	snap, err := g2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	bu, err := Traverse(0).Out(0).Out(0).Dedup().Direction(DirectionBottomUp).Run(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	td, err := Traverse(0).Out(0).Out(0).Dedup().Direction(DirectionTopDown).Run(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, "recovered bottomup", bu, td)
	if len(td) != 1 || td[0] != 3 {
		t.Fatalf("recovered two-hop = %v, want [3]", td)
	}
}

// TestTraversalNoExplainAllocs pins the hot path: a prebuilt sequential
// traversal without EXPLAIN must not allocate per-run beyond the result
// slices — in particular none of the EXPLAIN counters may be maintained.
func TestTraversalNoExplainAllocs(t *testing.T) {
	g := buildSocial(t)
	ctx := context.Background()
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	tr := Traverse(0).Out(0).Out(0)
	if _, err := tr.Run(ctx, snap); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := tr.Run(ctx, snap); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: the EdgeIter, the two frontier slices and small runtime
	// bookkeeping. The point is a hard ceiling: EXPLAIN attribution or
	// adaptive planning regressions that allocate per edge or per hop
	// blow well past it.
	if got > 12 {
		t.Fatalf("plain sequential Run allocates %.0f objects/run, budget 12", got)
	}
}
