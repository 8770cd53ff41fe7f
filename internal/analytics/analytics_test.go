package analytics

import (
	"math"
	"math/rand"
	"testing"

	"livegraph/internal/baseline/csr"
	"livegraph/internal/core"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// chain: 0 -> 1 -> 2 -> 3; star: 4 <- {5,6}; isolated: 7
func testGraph() *csr.Graph {
	return csr.Build(8, []csr.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
		{Src: 5, Dst: 4}, {Src: 6, Dst: 4},
	})
}

func TestPageRankSumsToOne(t *testing.T) {
	g := testGraph()
	for _, workers := range []int{1, 4} {
		ranks := PageRank(CSRView{g}, 20, workers)
		sum := 0.0
		for _, r := range ranks {
			sum += r
		}
		if math.Abs(sum-1.0) > 1e-9 {
			t.Fatalf("workers=%d: rank sum %f", workers, sum)
		}
	}
}

func TestPageRankOrdering(t *testing.T) {
	g := testGraph()
	ranks := PageRank(CSRView{g}, 30, 2)
	// Vertex 4 has two in-edges; it must outrank its in-neighbors 5 and 6
	// (which have none).
	if ranks[4] <= ranks[5] || ranks[4] <= ranks[6] {
		t.Fatalf("rank[4]=%f not above sources %f %f", ranks[4], ranks[5], ranks[6])
	}
	// Chain accumulates: 3 (end, fed by 2) > 1e-9 more than isolated 7.
	if ranks[3] <= ranks[7] {
		t.Fatalf("rank[3]=%f <= rank[7]=%f", ranks[3], ranks[7])
	}
}

func TestPageRankMatchesSequentialReference(t *testing.T) {
	g := testGraph()
	got := PageRank(CSRView{g}, 10, 4)
	// Reference: simple sequential implementation.
	n := int(g.NumVertices())
	const d = 0.85
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for it := 0; it < 10; it++ {
		next := make([]float64, n)
		dangling := 0.0
		for u := 0; u < n; u++ {
			deg := g.Degree(int64(u))
			if deg == 0 {
				dangling += rank[u]
				continue
			}
			for _, dst := range g.Neighbors(int64(u)) {
				next[dst] += rank[u] / float64(deg)
			}
		}
		for u := 0; u < n; u++ {
			rank[u] = (1-d)/float64(n) + d*dangling/float64(n) + d*next[u]
		}
	}
	for i := range rank {
		if math.Abs(rank[i]-got[i]) > 1e-12 {
			t.Fatalf("vertex %d: parallel %g, reference %g", i, got[i], rank[i])
		}
	}
}

func TestConnComp(t *testing.T) {
	g := testGraph()
	for _, workers := range []int{1, 4} {
		labels := ConnComp(CSRView{g}, workers)
		// Component {0,1,2,3} -> 0, {4,5,6} -> 4, {7} -> 7.
		for _, v := range []int{0, 1, 2, 3} {
			if labels[v] != 0 {
				t.Fatalf("workers=%d labels=%v", workers, labels)
			}
		}
		for _, v := range []int{4, 5, 6} {
			if labels[v] != 4 {
				t.Fatalf("workers=%d labels=%v", workers, labels)
			}
		}
		if labels[7] != 7 {
			t.Fatalf("labels=%v", labels)
		}
		if n := NumComponents(labels, nil); n != 3 {
			t.Fatalf("components=%d", n)
		}
	}
}

func TestBFSLevels(t *testing.T) {
	g := testGraph()
	for _, workers := range []int{1, 4} {
		dist := BFS(CSRView{g}, 0, workers)
		want := []int64{0, 1, 2, 3, -1, -1, -1, -1}
		for i, d := range dist {
			if d != want[i] {
				t.Fatalf("workers=%d dist=%v, want %v", workers, dist, want)
			}
		}
		// From 5: only 5 and 4 reachable.
		dist = BFS(CSRView{g}, 5, workers)
		if dist[5] != 0 || dist[4] != 1 || dist[0] != -1 {
			t.Fatalf("workers=%d dist from 5 = %v", workers, dist)
		}
	}
	// Out-of-range source: all unreachable.
	dist := BFS(CSRView{g}, 99, 2)
	for i, d := range dist {
		if d != -1 {
			t.Fatalf("dist[%d]=%d for out-of-range source", i, d)
		}
	}
}

// TestBFSParallelMatchesSequential cross-checks the morsel-parallel BFS
// against workers=1 on a random graph where vertices are reachable along
// many paths (run under -race this exercises the visited-set claims).
func TestBFSParallelMatchesSequential(t *testing.T) {
	const n = 3000
	edges := make([]csr.Edge, 0, 6*n)
	rng := newRand(17)
	for i := 0; i < 6*n; i++ {
		edges = append(edges, csr.Edge{Src: rng.Int63n(n), Dst: rng.Int63n(n)})
	}
	g := csr.Build(n, edges)
	want := BFS(CSRView{g}, 0, 1)
	for _, workers := range []int{4, 8} {
		got := BFS(CSRView{g}, 0, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: dist[%d]=%d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestDegrees(t *testing.T) {
	g := testGraph()
	for _, workers := range []int{1, 4} {
		deg := Degrees(CSRView{g}, workers)
		want := []int64{1, 1, 1, 0, 0, 1, 1, 0}
		for i, d := range deg {
			if d != want[i] {
				t.Fatalf("workers=%d degrees=%v, want %v", workers, deg, want)
			}
		}
	}
}

func TestNumComponentsWithExistence(t *testing.T) {
	labels := []int64{0, 0, 2, 3}
	n := NumComponents(labels, func(v int64) bool { return v != 3 })
	if n != 2 {
		t.Fatalf("components=%d, want 2", n)
	}
}

func TestSnapshotViewMatchesCSRView(t *testing.T) {
	// Build the same graph in LiveGraph and as CSR; kernels must agree.
	g, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	edges := []csr.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 2}, {Src: 4, Dst: 3}, {Src: 0, Dst: 4}}
	tx, _ := g.Begin()
	for i := 0; i < 5; i++ {
		tx.AddVertex(nil)
	}
	for _, e := range edges {
		tx.InsertEdge(core.VertexID(e.Src), 0, core.VertexID(e.Dst), nil)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, _ := g.Snapshot()
	defer snap.Release()
	lgView := SnapshotView{Snap: snap, Label: 0}
	csrView := CSRView{csr.Build(5, edges)}

	pr1 := PageRank(lgView, 15, 2)
	pr2 := PageRank(csrView, 15, 2)
	for i := range pr1 {
		if math.Abs(pr1[i]-pr2[i]) > 1e-12 {
			t.Fatalf("vertex %d: snapshot %g, csr %g", i, pr1[i], pr2[i])
		}
	}
	cc1 := ConnComp(lgView, 2)
	cc2 := ConnComp(csrView, 2)
	for i := range cc1 {
		if cc1[i] != cc2[i] {
			t.Fatalf("vertex %d: snapshot comp %d, csr comp %d", i, cc1[i], cc2[i])
		}
	}
}

func TestReaderViewMatchesSnapshotView(t *testing.T) {
	// The generic Reader adapter must agree with the snapshot fast path —
	// over a snapshot AND over a read transaction (both are Readers).
	g, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	edges := []csr.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 2}, {Src: 4, Dst: 3}, {Src: 0, Dst: 4}}
	tx, _ := g.Begin()
	for i := 0; i < 5; i++ {
		tx.AddVertex(nil)
	}
	for _, e := range edges {
		tx.InsertEdge(core.VertexID(e.Src), 0, core.VertexID(e.Dst), nil)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, _ := g.Snapshot()
	defer snap.Release()
	rtx, _ := g.BeginRead()
	defer rtx.Commit()

	want := PageRank(SnapshotView{Snap: snap, Label: 0}, 15, 2)
	// A snapshot Reader supports parallel workers; a Tx Reader is
	// single-goroutine only, so its kernel runs with workers = 1.
	for _, tc := range []struct {
		name    string
		r       core.Reader
		workers int
	}{{"snapshot", snap, 2}, {"tx", rtx, 1}} {
		got := PageRank(ReaderView{R: tc.r, N: g.NumVertices(), Label: 0}, 15, tc.workers)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%s ReaderView: vertex %d rank %g, want %g", tc.name, i, got[i], want[i])
			}
		}
	}
}

func TestEmptyGraphKernels(t *testing.T) {
	g := csr.Build(0, nil)
	if r := PageRank(CSRView{g}, 5, 2); r != nil {
		t.Fatalf("PageRank on empty graph: %v", r)
	}
	if l := ConnComp(CSRView{g}, 2); len(l) != 0 {
		t.Fatalf("ConnComp on empty graph: %v", l)
	}
}

// TestBFSDirectionEquivalence: the direction-optimizing BFS returns the
// same distance vector as forced top-down and forced bottom-up, on a
// random LiveGraph snapshot whose View carries the reverse-hint InView —
// the distances are schedule-independent (one BFS level per vertex), so
// equality is exact, not set-wise.
func TestBFSDirectionEquivalence(t *testing.T) {
	const n = 800
	g, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rng := newRand(23)
	tx, _ := g.Begin()
	for i := 0; i < n; i++ {
		tx.AddVertex(nil)
	}
	for i := 0; i < 5*n; i++ {
		tx.InsertEdge(core.VertexID(rng.Int63n(n)), 0, core.VertexID(rng.Int63n(n)), nil)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, _ := g.Snapshot()
	defer snap.Release()
	view := SnapshotView{Snap: snap, Label: 0}
	if _, ok := interface{}(view).(InView); !ok {
		t.Fatal("SnapshotView must implement InView")
	}

	want := BFSDir(view, 0, 1, core.DirectionTopDown)
	reached := 0
	for _, d := range want {
		if d >= 0 {
			reached++
		}
	}
	if reached < n/2 {
		t.Fatalf("fixture too sparse: only %d/%d reached", reached, n)
	}
	for _, workers := range []int{1, 4} {
		for name, dir := range map[string]core.Direction{
			"topdown": core.DirectionTopDown, "bottomup": core.DirectionBottomUp, "auto": core.DirectionAuto,
		} {
			got := BFSDir(view, 0, workers, dir)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: dist[%d]=%d, want %d", name, workers, i, got[i], want[i])
				}
			}
		}
	}

	// A View without InView (CSR) silently stays top-down even when
	// bottom-up is forced.
	csrEdges := []csr.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	cv := CSRView{csr.Build(3, csrEdges)}
	got := BFSDir(cv, 0, 2, core.DirectionBottomUp)
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("CSR forced-bottomup fallback dist = %v", got)
	}
}

// TestBFSColdIndexMatchesTopDown: SnapshotView always satisfies InView, so
// BFS's bottom-up levels must be exact on a graph whose reverse hint index
// has never been built — the first in-scan builds it — and again once later
// commits have landed beside the built index, in its overlay. (With the
// index switched off, the knob this test outlived, bottom-up levels saw no
// candidates and three quarters of the distances came back wrong.)
func TestBFSColdIndexMatchesTopDown(t *testing.T) {
	const n, deg = 2000, 8
	g, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rng := newRand(41)
	tx, _ := g.Begin()
	for i := 0; i < n; i++ {
		tx.AddVertex(nil)
	}
	for i := 0; i < deg*n; i++ {
		tx.InsertEdge(core.VertexID(rng.Int63n(n)), 0, core.VertexID(rng.Int63n(n)), nil)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	metric := func(name string) float64 { return g.Obs().Snapshot()[name].Value }
	check := func(when string) {
		t.Helper()
		snap, _ := g.Snapshot()
		defer snap.Release()
		view := SnapshotView{Snap: snap, Label: 0}
		got, want := BFS(view, 0, 2), BFSDir(view, 0, 2, core.DirectionTopDown)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: auto dist[%d]=%d, top-down says %d", when, i, got[i], want[i])
			}
		}
	}

	if metric("lg_rev_builds_total") != 0 {
		t.Fatal("the load built a reverse index")
	}
	check("cold index")
	if metric("lg_rev_builds_total") != 1 {
		t.Fatalf("BFS on a cold index made %v builds, want 1 (a BFS that never went bottom-up proves nothing here)", metric("lg_rev_builds_total"))
	}
	// 1 000 more commits, each a fresh vertex hanging off a reached one:
	// fewer hints than would trigger a fold, so they stay in the overlay.
	for i := 0; i < 1000; i++ {
		tx, _ := g.Begin()
		v, _ := tx.AddVertex(nil)
		tx.InsertEdge(core.VertexID(rng.Int63n(n)), 0, v, nil)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if metric("lg_rev_overlay_hints") != 1000 {
		t.Fatalf("overlay holds %v hints, want 1000", metric("lg_rev_overlay_hints"))
	}
	check("1000 commits in the overlay")
	if metric("lg_rev_builds_total") != 1 {
		t.Fatalf("%v builds, want the overlay left unfolded", metric("lg_rev_builds_total"))
	}
}
