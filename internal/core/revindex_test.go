package core

// Tests of the lazily built reverse hint index (revindex.go): the invariant
// its header states, under writers, folds, replication and recovery; the
// cost it may no longer put on the write path; and the guard that keeps a
// lock-holding transaction from waiting on a build.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"livegraph/internal/wal"
	"livegraph/internal/workload/kron"
)

// obsValue reads one scalar instrument of g's registry.
func obsValue(t testing.TB, g *Graph, name string) float64 {
	t.Helper()
	v, ok := g.Obs().Snapshot()[name]
	if !ok {
		t.Fatalf("no instrument %q", name)
	}
	return v.Value
}

// scanIn collects ScanIn(dst), sorted; a source reported twice fails.
func scanIn(t testing.TB, s *Snapshot, label Label, dst VertexID) []VertexID {
	t.Helper()
	var got []VertexID
	s.ScanIn(dst, label, func(src VertexID) bool { got = append(got, src); return true })
	slices.Sort(got)
	if len(slices.Compact(slices.Clone(got))) != len(got) {
		t.Errorf("ScanIn(%d) reported a source twice: %v", dst, got)
	}
	return got
}

// forwardIn is ScanIn's ground truth: the sources below n with a visible
// edge to dst, by the forward read path alone.
func forwardIn(s *Snapshot, label Label, dst VertexID, n int) []VertexID {
	var want []VertexID
	for src := VertexID(0); src < VertexID(n); src++ {
		if s.HasEdge(src, label, dst) {
			want = append(want, src)
		}
	}
	return want
}

// TestRevAddColdLabelIsFree: on a label nobody has scanned in-edges of, the
// per-edge hook allocates nothing — and takes no lock: there is nothing to
// lock, the label has no generation.
func TestRevAddColdLabelIsFree(t *testing.T) {
	g := buildFanIn(t, Options{}, 8, 4)
	if n := testing.AllocsPerRun(100, func() { g.revAdd(3, 0, 1) }); n != 0 {
		t.Fatalf("revAdd on a cold label allocates %v times a call, want 0", n)
	}
	if g.rev.Get(0) != nil || obsValue(t, g, "lg_rev_builds_total") != 0 {
		t.Fatal("writes alone built a reverse index")
	}
}

// TestRevIndexInvariantUnderWriters is the header's invariant under load:
// writers insert fresh (src, dst) pairs while readers in-scan a label that
// starts cold and folds as the overlay outgrows main. Every edge a reader's
// snapshot can see is in that snapshot's ScanIn, exactly once, and a
// bottom-up hop over the same generation emits no candidate twice.
func TestRevIndexInvariantUnderWriters(t *testing.T) { revIndexUnderWriters(t, false) }

// TestRevIndexInvariantUnderMaintenanceFolds is the same load with
// maintenance passes run back to back beside it, so folds at pass
// boundaries race the writers and the readers' own folds.
func TestRevIndexInvariantUnderMaintenanceFolds(t *testing.T) { revIndexUnderWriters(t, true) }

func revIndexUnderWriters(t *testing.T, passes bool) {
	const (
		writers   = 4
		perWriter = 160 // sources per writer
		hubs      = 3   // every source points at every hub
		sources   = writers * perWriter
	)
	g := openMem(t)
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < sources+hubs; i++ {
			tx.AddVertex(nil)
		}
	})
	hub := func(i int) VertexID { return VertexID(sources + i) }
	all := make([]VertexID, sources)
	for i := range all {
		all[i] = VertexID(i)
	}

	check := func(s *Snapshot) {
		for h := 0; h < hubs; h++ {
			if got, want := scanIn(t, s, 0, hub(h)), forwardIn(s, 0, hub(h), sources); !slices.Equal(got, want) {
				t.Errorf("epoch %d: ScanIn(hub %d) has %d sources, the forward path %d", s.ReadEpoch(), h, len(got), len(want))
			}
		}
		bu, err := Traverse(all...).Out(0).Dedup().Direction(DirectionBottomUp).Run(context.Background(), s)
		if err != nil {
			t.Error(err)
			return
		}
		td, _ := Traverse(all...).Out(0).Dedup().Direction(DirectionTopDown).Run(context.Background(), s)
		slices.Sort(bu)
		slices.Sort(td)
		if !slices.Equal(bu, td) {
			t.Errorf("epoch %d: bottom-up hop %v, top-down %v", s.ReadEpoch(), bu, td)
		}
	}

	// The second half of every writer's sources waits for a reader's first
	// check, so the cold build races the first half and the second half's
	// hints land after it — however the scheduler orders the goroutines.
	var writing atomic.Int32
	writing.Store(writers)
	checked := make(chan struct{})
	var checkedOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			for i := 0; i < perWriter; i++ {
				if i == perWriter/2 {
					<-checked
				}
				src := VertexID(w*perWriter + i)
				for h := 0; h < hubs; h++ {
					tx, err := g.Begin()
					if err != nil {
						t.Error(err)
						return
					}
					if err := tx.InsertEdge(src, 0, hub(h), nil); err != nil {
						t.Error(err) // sources are private to their writer: no conflicts
						return
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	if passes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for writing.Load() > 0 {
				g.CompactNow()
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer checkedOnce.Do(func() { close(checked) })
			for writing.Load() > 0 {
				s, err := g.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				check(s)
				s.Release()
				checkedOnce.Do(func() { close(checked) })
			}
		}()
	}
	wg.Wait()

	s, _ := g.Snapshot()
	defer s.Release()
	check(s)
	if got := len(scanIn(t, s, 0, hub(0))); got != sources {
		t.Fatalf("final ScanIn(hub 0) = %d sources, want %d", got, sources)
	}
	// At least 960 hints arrived after a build that saw at most the other
	// 960: at least one fold followed the first build, and the last check
	// left the overlay below the fold threshold.
	if b := obsValue(t, g, "lg_rev_builds_total"); b < 2 {
		t.Fatalf("lg_rev_builds_total = %v, want the first build and at least one fold", b)
	}
	main, over := obsValue(t, g, "lg_rev_main_hints"), obsValue(t, g, "lg_rev_overlay_hints")
	if main+over < sources*hubs || over > revFoldMin+main/revFoldFrac {
		t.Fatalf("main %v + overlay %v hints for %d edges", main, over, sources*hubs)
	}
}

// TestRevIndexFoldsAtMaintenancePass: an overlay past the fold line that
// no in-scan reads is folded at the next maintenance pass boundary, and the
// heap estimate falls with the overlay's per-hint overhead.
func TestRevIndexFoldsAtMaintenancePass(t *testing.T) {
	g, err := Open(Options{CompactEvery: -1}) // passes run only when asked
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const hubs, first, later = 4, 512, 100
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < hubs+first+later; i++ {
			tx.AddVertex(nil)
		}
	})
	link := func(lo, hi int) {
		mustCommit(t, g, func(tx *Tx) {
			for src := lo; src < hi; src++ {
				for h := 0; h < hubs; h++ {
					tx.InsertEdge(VertexID(src), 0, VertexID(h), nil)
				}
			}
		})
	}
	link(hubs, hubs+first)
	s, _ := g.Snapshot()
	scanIn(t, s, 0, 0) // builds main: hubs*first hints
	s.Release()
	link(hubs+first, hubs+first+later) // hubs*later overlay hints, past main/8
	main, over := obsValue(t, g, "lg_rev_main_hints"), obsValue(t, g, "lg_rev_overlay_hints")
	if main != hubs*first || over != hubs*later || over*revFoldFrac <= main {
		t.Fatalf("main %v, overlay %v hints: the fixture is not past the fold line", main, over)
	}
	before := obsValue(t, g, "lg_rev_bytes")
	if before <= 0 {
		t.Fatalf("lg_rev_bytes = %v with a built index", before)
	}

	g.CompactNow()
	main, over = obsValue(t, g, "lg_rev_main_hints"), obsValue(t, g, "lg_rev_overlay_hints")
	if b := obsValue(t, g, "lg_rev_builds_total"); b != 2 {
		t.Fatalf("lg_rev_builds_total = %v after the pass, want the build and one fold", b)
	}
	if main != hubs*(first+later) || over*revFoldFrac > main {
		t.Fatalf("after the pass: main %v, overlay %v hints", main, over)
	}
	if after := obsValue(t, g, "lg_rev_bytes"); after >= before {
		t.Fatalf("lg_rev_bytes %v before the fold, %v after", before, after)
	}
	g.CompactNow() // nothing past the line: no second fold
	if b := obsValue(t, g, "lg_rev_builds_total"); b != 2 {
		t.Fatalf("lg_rev_builds_total = %v after a pass with nothing to fold", b)
	}
	s, _ = g.Snapshot()
	defer s.Release()
	for h := 0; h < hubs; h++ {
		if got, want := scanIn(t, s, 0, VertexID(h)), forwardIn(s, 0, VertexID(h), hubs+first+later); !slices.Equal(got, want) {
			t.Fatalf("ScanIn(%d) = %d sources, the forward path %d", h, len(got), len(want))
		}
	}
}

// TestRevOverlayKeepsEachPairOnce: the overlay holds each (dst, src) pair
// once — recognised by a chain walk on short runs and by the seen table on
// runs past revSeenThreshold — and a destination's chain yields exactly the
// pairs added, wherever in the ID space it lies.
func TestRevOverlayKeepsEachPairOnce(t *testing.T) {
	ov := &revOverlay{}
	want := map[VertexID]map[uint32]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40000; i++ {
		d := rng.Intn(1 << 10)
		dst := VertexID(d*d) << 20 // a few long runs, many short ones
		src := uint32(rng.Intn(1 << 9))
		if i%7 == 0 {
			src = math.MaxUint32 - src
		}
		if want[dst] == nil {
			want[dst] = map[uint32]bool{}
		}
		if added := ov.add(dst, src); added == want[dst][src] {
			t.Fatalf("add(%d, %d) = %v with the pair already held: %v", dst, src, added, want[dst][src])
		}
		want[dst][src] = true
	}
	n := 0
	for dst, srcs := range want {
		got := map[uint32]bool{}
		for log, i := ov.chain(dst); i >= 0; i = log[i].prev {
			if got[log[i].src] {
				t.Fatalf("dst %d: source %d chained twice", dst, log[i].src)
			}
			got[log[i].src] = true
		}
		if !maps.Equal(got, srcs) {
			t.Fatalf("dst %d: chain has %d sources, want %d", dst, len(got), len(srcs))
		}
		for src := range srcs {
			if !ov.has(dst, src) {
				t.Fatalf("has(%d, %d) = false", dst, src)
			}
		}
		if ov.has(dst, 1<<20) || !ov.holds(dst) || ov.holds(dst+1) {
			t.Fatalf("dst %d: has/holds disagree with the pairs added", dst)
		}
		n += len(srcs)
	}
	if ov.hints.Load() != int64(n) || ov.dsts.Load() != int64(len(want)) || ov.seen.n == 0 {
		t.Fatalf("%d hints over %d runs (%d seen), want %d over %d", ov.hints.Load(), ov.dsts.Load(), ov.seen.n, n, len(want))
	}
}

// TestRevIndexStaleAndHistoric: hints are a superset confirmed through the
// forward path, so a delete leaves ScanIn exact at the new epoch while an
// AsOf scan inside HistoryRetention — through an index built after the
// delete and after compaction ran — still finds the old edge.
func TestRevIndexStaleAndHistoric(t *testing.T) {
	g, err := Open(Options{HistoryRetention: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 4; i++ {
			tx.AddVertex(nil)
		}
		tx.InsertEdge(0, 0, 3, nil)
		tx.InsertEdge(1, 0, 3, nil)
	})
	before := g.ReadEpoch()
	mustCommit(t, g, func(tx *Tx) {
		if err := tx.DeleteEdge(1, 0, 3); err != nil {
			t.Fatal(err)
		}
		tx.InsertEdge(2, 0, 3, nil)
	})
	g.CompactNow()

	old, err := g.SnapshotAt(before)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Release()
	if got := scanIn(t, old, 0, 3); !slices.Equal(got, []VertexID{0, 1}) {
		t.Fatalf("AsOf ScanIn = %v, want [0 1]", got)
	}
	now, _ := g.Snapshot()
	defer now.Release()
	if got := scanIn(t, now, 0, 3); !slices.Equal(got, []VertexID{0, 2}) {
		t.Fatalf("ScanIn = %v, want [0 2]", got)
	}
	var cands []VertexID
	now.ScanInCandidates(3, 0, func(src VertexID) bool { cands = append(cands, src); return true })
	if slices.Sort(cands); !slices.Equal(cands, []VertexID{0, 1, 2}) {
		t.Fatalf("candidates = %v, want the stale hint kept: [0 1 2]", cands)
	}
}

// TestRevIndexFollowerBuildsLazily: a replica fed through ApplyEpoch keeps
// no index until asked, hints its overlay from the stream afterwards, and
// agrees with its primary's ScanIn both times.
func TestRevIndexFollowerBuildsLazily(t *testing.T) {
	dir := t.TempDir()
	primary := openDurable(t, dir)
	defer primary.Close()
	const n = 40
	mustCommit(t, primary, func(tx *Tx) {
		for i := 0; i < n; i++ {
			tx.AddVertex(nil)
		}
		for i := 1; i < n/2; i++ {
			tx.InsertEdge(VertexID(i), 0, 0, nil)
		}
	})
	follower := openFollower(t, Options{})
	tl := wal.Tail(dir, 0, primary.DurableEpoch)
	defer tl.Close()
	catchUp(t, tl, follower)
	if follower.rev.Get(0) != nil {
		t.Fatal("replication apply built a reverse index nobody asked for")
	}

	agree := func() {
		t.Helper()
		ps, _ := primary.Snapshot()
		defer ps.Release()
		fs, _ := follower.Snapshot()
		defer fs.Release()
		got, want := scanIn(t, fs, 0, 0), scanIn(t, ps, 0, 0)
		if !slices.Equal(got, want) || !slices.Equal(want, forwardIn(ps, 0, 0, n)) {
			t.Fatalf("follower ScanIn = %v, primary %v", got, want)
		}
	}
	agree()
	if b := obsValue(t, follower, "lg_rev_builds_total"); b != 1 {
		t.Fatalf("follower builds = %v after its first in-scan, want 1", b)
	}
	mustCommit(t, primary, func(tx *Tx) {
		for i := n / 2; i < n; i++ {
			tx.InsertEdge(VertexID(i), 0, 0, nil)
		}
		if err := tx.DeleteEdge(1, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	catchUp(t, tl, follower)
	agree()
	if o := obsValue(t, follower, "lg_rev_overlay_hints"); o != n/2 {
		t.Fatalf("follower overlay holds %v hints, want the %d the stream added", o, n/2)
	}
}

// TestRevIndexAfterRecovery: a graph reopened from a base snapshot, a delta
// chain and a WAL tail has its statistics but no index; the first ScanIn
// builds one and is exact.
func TestRevIndexAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	g := openDurable(t, dir)
	const n = 100
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < n; i++ {
			tx.AddVertex(nil)
		}
		for i := 1; i < 40; i++ {
			tx.InsertEdge(VertexID(i), 0, 0, nil)
		}
	})
	if err := g.Checkpoint(); err != nil { // base
		t.Fatal(err)
	}
	mustCommit(t, g, func(tx *Tx) { // a tenth of the vertices: below RebaseFraction
		for i := 40; i < 50; i++ {
			tx.InsertEdge(VertexID(i), 0, 0, nil)
		}
	})
	if err := g.Checkpoint(); err != nil { // delta
		t.Fatal(err)
	}
	if d := g.CkptStats().Deltas.Load(); d != 1 {
		t.Fatalf("fixture wrote %d deltas, want 1", d)
	}
	mustCommit(t, g, func(tx *Tx) { // WAL tail
		for i := 50; i < n; i++ {
			tx.InsertEdge(VertexID(i), 0, 0, nil)
		}
		if err := tx.DeleteEdge(5, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := openDurable(t, dir)
	defer g2.Close()
	if b := obsValue(t, g2, "lg_rev_builds_total"); b != 0 || g2.rev.Get(0) != nil {
		t.Fatalf("recovery built a reverse index (builds = %v)", b)
	}
	if st := g2.LabelDegreeStats(0); st.Targets != 0 || st.Edges != n-2 {
		t.Fatalf("recovered stats %+v, want Targets 0 and %d edges", st, n-2)
	}
	s, _ := g2.Snapshot()
	defer s.Release()
	want := forwardIn(s, 0, 0, n)
	if got := scanIn(t, s, 0, 0); !slices.Equal(got, want) || len(want) != n-2 {
		t.Fatalf("first ScanIn after recovery = %v, want %v", got, want)
	}
	if st := g2.LabelDegreeStats(0); st.Targets != 1 {
		t.Fatalf("Targets = %d after the build, want 1", st.Targets)
	}
}

// TestLockHoldingTxNeverBuilds is the deadlock guard: the build takes
// vertex locks, so a transaction that holds some must neither start one nor
// wait for one. On an unbuilt label its adaptive hop stays top-down and its
// forced bottom-up hop is refused with the reason; once somebody else has
// built the label, the same transaction goes bottom-up — own writes
// included. LockTimeout is the default: nothing here may lean on it.
func TestLockHoldingTxNeverBuilds(t *testing.T) {
	g := buildFanIn(t, Options{}, 48, 12) // dense enough that auto wants bottom-up
	ctx := context.Background()
	twoHop := func(d Direction) *Traversal { return Traverse(0).Out(0).Out(0).Dedup().Direction(d) }

	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	fresh, _ := tx.AddVertex(nil)
	if err := tx.InsertEdge(1, 0, fresh, nil); err != nil { // holds vertex 1's lock from here on
		t.Fatal(err)
	}

	res, ex, err := twoHop(DirectionAuto).RunExplain(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	if d := ex.Hops[1].Direction; d != "topdown" || ex.Hops[1].IndexBuildUs != 0 {
		t.Fatalf("auto hop inside a lock-holding tx ran %s (build %dus), want topdown without a build", d, ex.Hops[1].IndexBuildUs)
	}
	if !slices.Contains(res, fresh) {
		t.Fatalf("own write missing from %v", res)
	}
	_, err = twoHop(DirectionBottomUp).Run(ctx, tx)
	if !errors.Is(err, ErrBottomUpUnsupported) || !strings.Contains(err.Error(), "vertex locks") {
		t.Fatalf("forced bottom-up inside a lock-holding tx: err = %v, want ErrBottomUpUnsupported naming the locks", err)
	}
	if g.rev.Get(0) != nil {
		t.Fatal("a lock-holding transaction started a build")
	}

	// Somebody else builds: a snapshot's in-scan. It needs vertex 1's lock,
	// so it can only finish once tx lets go; tx, meanwhile, must still not
	// wait for it.
	built := make(chan struct{})
	go func() {
		defer close(built)
		s, err := g.Snapshot()
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Release()
		s.ScanIn(49, 0, func(VertexID) bool { return true })
	}()
	for g.rev.Get(0) == nil { // until the build has published its overlay and is scanning
		select {
		case <-built:
			t.Fatal("the build finished while a source's lock was held")
		default:
			runtime.Gosched()
		}
	}
	if _, ex, err = twoHop(DirectionAuto).RunExplain(ctx, tx); err != nil || ex.Hops[1].Direction != "topdown" {
		t.Fatalf("auto hop during someone else's build: %v, %+v", err, ex.Hops[1])
	}
	if _, err = twoHop(DirectionBottomUp).Run(ctx, tx); !errors.Is(err, ErrBottomUpUnsupported) {
		t.Fatalf("forced bottom-up during someone else's build: err = %v", err)
	}
	tx.Abort()
	<-built

	tx2, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Abort()
	fresh2, _ := tx2.AddVertex(nil)
	if err := tx2.InsertEdge(1, 0, fresh2, nil); err != nil {
		t.Fatal(err)
	}
	res, ex, err = twoHop(DirectionAuto).RunExplain(ctx, tx2)
	if err != nil {
		t.Fatal(err)
	}
	if d := ex.Hops[1].Direction; d != "bottomup" {
		t.Fatalf("auto hop on a built label ran %s, want bottomup", d)
	}
	if !slices.Contains(res, fresh2) {
		t.Fatalf("own write missing from the bottom-up hop: %v", res)
	}
}

// TestExplainIndexBuild: the hop that pays for the build says so, and only
// that hop.
func TestExplainIndexBuild(t *testing.T) {
	g := buildFanIn(t, Options{}, 48, 12)
	ctx := context.Background()
	s, _ := g.Snapshot()
	defer s.Release()
	tr := Traverse(0).Out(0).Out(0).Dedup()
	_, cold, err := tr.RunExplain(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := tr.RunExplain(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hops[0].IndexBuildUs != 0 || cold.Hops[1].Direction != "bottomup" || cold.Hops[1].IndexBuildUs <= 0 {
		t.Fatalf("cold run: %+v", cold.Hops)
	}
	if warm.Hops[1].Direction != "bottomup" || warm.Hops[1].IndexBuildUs != 0 {
		t.Fatalf("warm run paid for a build again: %+v", warm.Hops[1])
	}
	if n := g.ob.revBuild.Count(); n != 1 || obsValue(t, g, "lg_rev_builds_total") != 1 {
		t.Fatalf("lg_rev_build_seconds has %d samples, want 1", n)
	}
}

// kronEdges is the benchmarks' graph: 2^16 vertices x 16, power-law.
var kronEdges = sync.OnceValue(func() []kron.Edge { return kron.Generate(16, 16, 42, kron.DefaultParams) })

// loadKron loads kronEdges, 32 B of properties each, in batched InsertEdge
// transactions.
func loadKron(b *testing.B, g *Graph) {
	b.Helper()
	edges, props := kronEdges(), make([]byte, 32)
	mustCommit(b, g, func(tx *Tx) {
		for i := 0; i < 1<<16; i++ {
			tx.AddVertex(nil)
		}
	})
	for lo := 0; lo < len(edges); lo += 8192 {
		mustCommit(b, g, func(tx *Tx) {
			for _, e := range edges[lo:min(lo+8192, len(edges))] {
				tx.InsertEdge(VertexID(e.Src), 0, VertexID(e.Dst), props)
			}
		})
	}
}

func heapInuse() float64 {
	runtime.GC()
	runtime.GC() // the second sweeps what the first one's deferred frees released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// BenchmarkBulkLoadEdges is the write path with no index ever asked for:
// InsertEdge batches into a fresh volatile graph. The last iteration's
// graph is also where README's memory attribution comes from: per edge, the
// whole Go heap the graph holds, what the first in-scan's index adds to
// that, and — after one maintenance pass has recycled the blocks upgrades
// left behind, so the split does not depend on when the background pass
// last ran — the arena the allocator reserved, the part of it in live
// blocks and the part in free lists.
func BenchmarkBulkLoadEdges(b *testing.B) {
	edges := float64(len(kronEdges()))
	heap0 := heapInuse()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Open(Options{}) // not openMem: its Cleanup would keep every iteration's graph alive
		if err != nil {
			b.Fatal(err)
		}
		loadKron(b, g)
		if g.rev.Get(0) != nil {
			b.Fatal("the load built a reverse index")
		}
		if i == b.N-1 {
			b.StopTimer()
			loaded := heapInuse()
			g.revReady(0, true)
			b.ReportMetric((loaded-heap0)/edges, "heap-B/edge")
			b.ReportMetric((heapInuse()-loaded)/edges, "index-B/edge")
			g.CompactNow()
			st := g.AllocStats()
			b.ReportMetric(float64(st.SlabWords*8)/edges, "arena-reserved-B/edge")
			b.ReportMetric(float64(st.AllocatedWords*8)/edges, "arena-live-B/edge")
			b.ReportMetric(float64(st.RecycledWords*8)/edges, "arena-recycled-B/edge")
		}
		g.Close()
	}
	b.ReportMetric(edges*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkRevIndexBuild prices a build of the reverse hint index on the
// 2^16 x 16 Kronecker graph: ns/hint is the build's time per main hint,
// B/hint the heap it adds per main hint. overlay-B/hint is the heap per
// hint of an overlay fed a fold's worth (main/revFoldFrac) of the graph's
// edges with shifted sources.
func BenchmarkRevIndexBuild(b *testing.B) {
	g := openMem(b)
	loadKron(b, g)
	var heap, hints float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.rev.Set(0, nil) // nothing else is running: forget the index
		before := heapInuse()
		b.StartTimer()
		gen, _ := g.revReady(0, true)
		b.StopTimer()
		heap, hints = heapInuse()-before, float64(len(gen.main.srcs))
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/hints, "ns/hint")
	b.ReportMetric(heap/hints, "B/hint")

	b.StopTimer()
	edges := kronEdges()
	edges = edges[:len(edges)/revFoldFrac]
	before := heapInuse()
	ov := &revOverlay{}
	for _, e := range edges {
		ov.add(VertexID(e.Dst), uint32(e.Src)+1<<16)
	}
	b.ReportMetric((heapInuse()-before)/float64(ov.hints.Load()), "overlay-B/hint")
	runtime.KeepAlive(ov)
}

// BenchmarkColdBottomUp prices the first bottom-up hop on a label whose
// index has never been built — the build is inside the timed hop — against
// the same hop forced top-down and against a later, warm bottom-up hop, on
// a 2^16 x 16 Kronecker graph at two frontiers: the narrowest one for which
// DirectionAuto picks bottom-up, where the lazy build is least likely to
// pay for itself, and every vertex that has out-edges, where bottom-up has
// the most to gain.
func BenchmarkColdBottomUp(b *testing.B) {
	g := openMem(b)
	loadKron(b, g)
	ctx := context.Background()
	s, _ := g.Snapshot()
	defer s.Release()

	// The narrowest frontier chooseDirection sends bottom-up, from the
	// constants and the statistics it reads (Targets needs one build).
	s.ScanInCandidates(0, 0, func(VertexID) bool { return false })
	st := g.LabelDegreeStats(0)
	narrow := 1 + int(max(float64(st.Edges)/(bottomUpBeta*st.AvgDegree), bottomUpAlpha*float64(st.Targets)/st.AvgDegree))
	var withEdges []VertexID
	for v := VertexID(0); v < VertexID(s.NumVertices()); v++ {
		if listOf(g, v, 0) != nil {
			withEdges = append(withEdges, v)
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(withEdges), func(i, j int) { withEdges[i], withEdges[j] = withEdges[j], withEdges[i] })
	hop := func(width int, d Direction) *Traversal {
		return Traverse(withEdges[:width]...).Out(0).Dedup().Parallel(1).Direction(d)
	}
	if _, ex, err := hop(narrow, DirectionAuto).RunExplain(ctx, s); err != nil || ex.Hops[0].Direction != "bottomup" {
		b.Fatalf("auto at width %d: %v, %+v", narrow, err, ex.Hops[0])
	}
	if _, ex, _ := hop(narrow*9/10, DirectionAuto).RunExplain(ctx, s); ex.Hops[0].Direction != "topdown" {
		b.Fatalf("width %d is not the narrowest bottom-up frontier: nine tenths of it already go %s", narrow, ex.Hops[0].Direction)
	}

	for _, width := range []int{narrow, len(withEdges)} {
		run := func(name string, d Direction, cold bool) {
			b.Run(fmt.Sprintf("frontier=%d/%s", width, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if cold {
						g.rev.Set(0, nil) // nothing else is running: forget the index
					}
					if _, err := hop(width, d).Run(ctx, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("Cold", DirectionAuto, true)
		run("TopDown", DirectionTopDown, false)
		run("Warm", DirectionAuto, false)
	}
}
