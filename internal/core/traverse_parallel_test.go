package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
)

// buildRandomGraph commits a random directed graph of n vertices and e
// edges on label 0, plus a hub (vertex 0) dense enough that one adjacency
// list spans multiple stop-check windows of the parallel engine.
func buildRandomGraph(t testing.TB, g *Graph, n, e int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < n; i++ {
			tx.AddVertex(nil)
		}
	})
	// Batched edge commits keep any one group-commit apply small.
	for lo := 0; lo < e; lo += 4096 {
		hi := min(lo+4096, e)
		mustCommit(t, g, func(tx *Tx) {
			for i := lo; i < hi; i++ {
				tx.InsertEdge(VertexID(rng.Intn(n)), 0, VertexID(rng.Intn(n)), nil)
			}
		})
	}
	mustCommit(t, g, func(tx *Tx) {
		for i := 1; i < min(n, 3000); i++ {
			tx.InsertEdge(0, 0, VertexID(i), nil)
		}
	})
}

func multiset(ids []VertexID) map[VertexID]int {
	m := make(map[VertexID]int, len(ids))
	for _, v := range ids {
		m[v]++
	}
	return m
}

func sameMultiset(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	ma, mb := multiset(a), multiset(b)
	for k, n := range ma {
		if mb[k] != n {
			return false
		}
	}
	return true
}

// parallelTrav clones the builder shape fresh each call (a Traversal's
// engine knobs mutate the receiver, so comparisons need separate values).
type travSpec func() *Traversal

// runBoth executes spec sequentially and at the given parallelism (with a
// small morsel size so modest frontiers still engage workers) and returns
// both results.
func runBoth(t *testing.T, r Reader, spec travSpec, par int) (seq, parr []VertexID) {
	t.Helper()
	ctx := context.Background()
	seq, err := spec().Parallel(1).Run(ctx, r)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	parr, err = spec().Parallel(par).MorselSize(16).Run(ctx, r)
	if err != nil {
		t.Fatalf("parallel(%d) run: %v", par, err)
	}
	return seq, parr
}

// TestParallelTraversalEquivalence runs the equivalence table
// (checkEquivalence) on a randomized graph with a hub, where frontiers are
// wide enough for a pool to engage and every row finds something.
func TestParallelTraversalEquivalence(t *testing.T) {
	g, err := Open(Options{HistoryRetention: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buildRandomGraph(t, g, 2000, 16000, 42)
	before := g.ReadEpoch()
	mustCommit(t, g, func(tx *Tx) {
		for i := 1; i < 200; i++ {
			tx.DeleteEdge(0, 0, VertexID(i))
		}
		for i := 0; i < 500; i++ {
			tx.InsertEdge(VertexID(i%1000), 0, VertexID((i*7)%1000), nil)
		}
	})
	checkEquivalence(t, g, before, func(string) bool { return true })
}

// narrowedDedup is a dedup traversal whose hops change engine both ways
// under Parallel(n).MorselSize(16): the single source expands sequentially,
// the hub's ~3k neighbors expand on the worker pool, the filter narrows the
// frontier to a handful of vertices, and the last hop is sequential again —
// probing, lock-free, the striped set the workers just used.
func narrowedDedup() *Traversal {
	return Traverse(0).Out(0).Out(0).
		Filter(func(r Reader, v VertexID) bool { return v%250 == 0 }).
		Out(0).Dedup().Direction(DirectionTopDown)
}

// TestSequentialHopAfterParallelHopSharesDedupSet pins the schedule
// narrowedDedup is in the equivalence matrix for: EXPLAIN must show a
// parallel hop followed by a sequential one, and the run must agree with
// the all-sequential compilation. The hop barrier is what lets the
// sequential hop own the set; -race -cpu=1,4 checks that it does.
func TestSequentialHopAfterParallelHopSharesDedupSet(t *testing.T) {
	g := openMem(t)
	buildRandomGraph(t, g, 2000, 16000, 42)
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	ctx := context.Background()
	got, ex, err := narrowedDedup().Parallel(4).MorselSize(16).RunExplain(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	var engines []bool
	for _, h := range ex.Hops {
		if h.Kind == "out" {
			engines = append(engines, h.Parallel)
		}
	}
	if len(engines) != 3 || engines[0] || !engines[1] || engines[2] {
		t.Fatalf("hops ran parallel=%v, want [false true false]", engines)
	}
	want, err := narrowedDedup().Parallel(1).Run(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !sameMultiset(got, want) {
		t.Fatalf("%d results, sequential compilation has %d", len(got), len(want))
	}
	for v, n := range multiset(got) {
		if n != 1 {
			t.Fatalf("dedup emitted %d %d times", v, n)
		}
	}

	// EXPLAIN reports the workers that ran, not the width asked for: a
	// 20-vertex frontier in 16-wide morsels is two morsels, so two workers.
	src := make([]VertexID, 20)
	for i := range src {
		src[i] = VertexID(i + 1)
	}
	_, ex, err = Traverse(src...).Out(0).Parallel(8).MorselSize(16).RunExplain(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if h := ex.Hops[0]; !h.Parallel || h.Workers != 2 || h.Morsels != 2 || h.MorselSize != 16 {
		t.Fatalf("two-morsel hop at Parallel(8) reported %+v, want 2 workers on 2 morsels of 16", h)
	}
}

// TestParallelTraversalLimit checks Limit semantics under parallelism: the
// result has exactly min(limit, |full|) elements, every element drawn from
// the full multiset, and the atomic budget stops expansion early rather
// than scanning the whole frontier.
func TestParallelTraversalLimit(t *testing.T) {
	g := openMem(t)
	buildRandomGraph(t, g, 2000, 16000, 7)
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	ctx := context.Background()

	full, err := Traverse(0).Out(0).Out(0).Parallel(1).Run(ctx, snap)
	if err != nil || len(full) < 100 {
		t.Fatalf("fixture: %d results, %v", len(full), err)
	}
	fullSet := multiset(full)
	for _, limit := range []int{1, 17, 100} {
		got, err := Traverse(0).Out(0).Out(0).Limit(limit).Parallel(8).MorselSize(16).Run(ctx, snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != limit {
			t.Fatalf("Limit(%d) returned %d results", limit, len(got))
		}
		for v, c := range multiset(got) {
			if fullSet[v] < c {
				t.Fatalf("Limit(%d) emitted %d with multiplicity %d > full %d", limit, v, c, fullSet[v])
			}
		}
	}

	// Regression: results the limit discards must not charge the
	// MaxFrontier budget. With L at least the hop-1 width but below the raw
	// hop-2 width, Limit(L).MaxFrontier(L) succeeds sequentially, so it
	// must succeed in parallel too — workers racing past the limit during
	// stop-flag propagation must not trip ErrFrontierTooLarge.
	hop1, err := Traverse(0).Out(0).Parallel(1).Run(ctx, snap)
	if err != nil || len(hop1) == 0 || len(hop1)+50 >= len(full) {
		t.Fatalf("fixture: hop1 %d, full %d, %v", len(hop1), len(full), err)
	}
	budget := len(hop1) + 50
	for i := 0; i < 25; i++ {
		got, err := Traverse(0).Out(0).Out(0).Limit(budget).MaxFrontier(budget).
			Parallel(8).MorselSize(16).Run(ctx, snap)
		if err != nil || len(got) != budget {
			t.Fatalf("Limit+MaxFrontier(%d) run %d: %d results, %v", budget, i, len(got), err)
		}
	}

	// The Limit budget must terminate workers early: with Limit(1) the
	// engine may not expand anywhere near the whole ~3000-vertex frontier.
	cr := &countingReader{snap: snap}
	if _, ok := any(cr).(edgeIterSource); ok {
		t.Fatal("countingReader must not satisfy edgeIterSource (the counter would be bypassed)")
	}
	if _, err := Traverse(0).Out(0).Out(0).Limit(1).Parallel(4).MorselSize(16).Run(ctx, cr); err != nil {
		t.Fatal(err)
	}
	if n := cr.neighborCalls.Load(); n == 0 {
		t.Error("countingReader.Neighbors never called; wrapper is being bypassed")
	} else if n > 512 {
		t.Errorf("Limit(1) expanded %d vertices; budget did not stop workers", n)
	}
}

// countingReader wraps a Snapshot by explicit delegation (NOT embedding —
// promotion would leak the snapshot's neighborsInto and bypass the
// counter), counting Neighbors calls. It deliberately does not implement
// edgeIterSource, so it also covers the engine's r.Neighbors fallback path
// for foreign Reader implementations.
type countingReader struct {
	snap          *Snapshot
	neighborCalls atomic.Int64
}

func (c *countingReader) GetVertex(v VertexID) ([]byte, error) { return c.snap.GetVertex(v) }
func (c *countingReader) GetEdge(s VertexID, l Label, d VertexID) ([]byte, error) {
	return c.snap.GetEdge(s, l, d)
}
func (c *countingReader) Degree(v VertexID, l Label) int { return c.snap.Degree(v, l) }
func (c *countingReader) ReadEpoch() int64               { return c.snap.ReadEpoch() }
func (c *countingReader) ConcurrentSafe()                {}

func (c *countingReader) Neighbors(src VertexID, label Label) *EdgeIter {
	c.neighborCalls.Add(1)
	return c.snap.Neighbors(src, label)
}

var _ ParallelReader = (*countingReader)(nil)

// TestParallelTraversalMaxFrontier: both engines enforce the same bound.
func TestParallelTraversalMaxFrontier(t *testing.T) {
	g := openMem(t)
	buildRandomGraph(t, g, 2000, 16000, 3)
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	ctx := context.Background()

	full, err := Traverse(0).Out(0).Out(0).Parallel(8).MorselSize(16).Run(ctx, snap)
	if err != nil || len(full) < 100 {
		t.Fatalf("fixture: %d, %v", len(full), err)
	}
	for _, par := range []int{1, 8} {
		if _, err := Traverse(0).Out(0).Out(0).MaxFrontier(50).Parallel(par).MorselSize(16).Run(ctx, snap); !errors.Is(err, ErrFrontierTooLarge) {
			t.Fatalf("par=%d MaxFrontier(50) err = %v, want ErrFrontierTooLarge", par, err)
		}
		got, err := Traverse(0).Out(0).Out(0).MaxFrontier(len(full)).Parallel(par).MorselSize(16).Run(ctx, snap)
		if err != nil || !sameMultiset(got, full) {
			t.Fatalf("par=%d MaxFrontier(|full|) = %d results, %v", par, len(got), err)
		}
	}
}

// TestParallelTraversalAsOf: time-travel runs produce the same answer in
// both engines, and see through later edits.
func TestParallelTraversalAsOf(t *testing.T) {
	g, err := Open(Options{HistoryRetention: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buildRandomGraph(t, g, 1000, 8000, 9)
	before := g.ReadEpoch()
	// Churn after the epoch: delete some hub edges, add others.
	mustCommit(t, g, func(tx *Tx) {
		for i := 1; i < 200; i++ {
			tx.DeleteEdge(0, 0, VertexID(i))
		}
		for i := 0; i < 500; i++ {
			tx.InsertEdge(VertexID(i%1000), 0, VertexID((i*7)%1000), nil)
		}
	})
	snap, err := g.SnapshotAt(before)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	spec := func() *Traversal { return Traverse(0).Out(0).Out(0).AsOf(before) }
	seq, parr := runBoth(t, snap, spec, 8)
	if !sameIDs(parr, seq) {
		t.Fatalf("AsOf parallel diverges: %d vs %d results", len(parr), len(seq))
	}
	now, err := Traverse(0).Out(0).Out(0).Parallel(8).MorselSize(16).RunGraph(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if sameMultiset(now, seq) {
		t.Fatal("latest-epoch run unexpectedly equals the pre-churn answer")
	}
}

// TestParallelTraversalCancelMidHop cancels the context between hops (from
// a Filter step) and during a hop (from a concurrent goroutine watching a
// started channel) and requires prompt, error-correct termination.
func TestParallelTraversalCancelMidHop(t *testing.T) {
	g := openMem(t)
	buildRandomGraph(t, g, 2000, 16000, 11)
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	// Deterministic: the filter cancels while the traversal is mid-flight,
	// so the next parallel hop must observe ctx and abort.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := false
	_, err = Traverse(0).Out(0).
		Filter(func(r Reader, v VertexID) bool {
			if !fired {
				fired = true
				cancel()
			}
			return true
		}).
		Out(0).Parallel(8).MorselSize(16).Run(ctx, snap)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel between hops: err = %v, want context.Canceled", err)
	}

	// Racy variant: cancel from outside while workers are expanding. Loop a
	// few times so at least some cancellations land mid-hop.
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := Traverse(0).Out(0).Out(0).Out(0).Parallel(8).MorselSize(16).Run(ctx, snap)
			done <- err
		}()
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-hop cancel: err = %v", err)
		}
	}

	// Inside one adjacency list: a one-vertex frontier is one morsel on one
	// worker whatever Parallel says, and the only look at ctx before the
	// hop ends is the one every stopCheckEdges scanned entries. The fused
	// predicate cancels on its 100th call, well inside the hub's list.
	const hubDegree = 4*stopCheckEdges + 100
	var hub VertexID
	mustCommit(t, g, func(tx *Tx) {
		hub, _ = tx.AddVertex(nil)
		for i := 0; i < hubDegree; i++ {
			v, _ := tx.AddVertex(nil)
			tx.InsertEdge(hub, 0, v, nil)
		}
	})
	hubSnap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer hubSnap.Release()
	for _, par := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		res, err := Traverse(hub).Out(0).FilterDst(func(VertexID) bool {
			if calls.Add(1) == 100 {
				cancel()
			}
			return true
		}).Parallel(par).Run(ctx, hubSnap)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d cancel inside one list: %d results, err = %v, want context.Canceled", par, len(res), err)
		}
		if n := calls.Load(); n >= hubDegree {
			t.Fatalf("par=%d: the scan ran all %d entries after the cancel", par, n)
		}
	}
}

// TestParallelTraversalTxStaysSequential: a *Tx is not a ParallelReader,
// so Parallel(8) on it must run sequentially (and still see own writes).
func TestParallelTraversalTxStaysSequential(t *testing.T) {
	g := openMem(t)
	buildRandomGraph(t, g, 500, 4000, 13)
	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if err := tx.InsertEdge(1, 0, 499, nil); err != nil {
		t.Fatal(err)
	}
	if p := Traverse(0).Parallel(8).effectiveParallelism(tx); p != 1 {
		t.Fatalf("effective parallelism on *Tx = %d, want 1", p)
	}
	got, err := Traverse(1).Out(0).Parallel(8).Run(context.Background(), tx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range got {
		if v == 499 {
			found = true
		}
	}
	if !found {
		t.Fatalf("traversal on tx missed its own write: %v", got)
	}
}

// TestTraversalParallelismDefaultFromOptions: with no Parallel() call the
// engine inherits Options.TraversalParallelism.
func TestTraversalParallelismDefaultFromOptions(t *testing.T) {
	g, err := Open(Options{TraversalParallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mustCommit(t, g, func(tx *Tx) { tx.AddVertex(nil) })
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if p := Traverse(0).effectiveParallelism(snap); p != 3 {
		t.Fatalf("effective parallelism = %d, want Options value 3", p)
	}
	if p := Traverse(0).Parallel(5).effectiveParallelism(snap); p != 5 {
		t.Fatalf("builder override = %d, want 5", p)
	}
}
