package core

// Background-maintenance correctness: compaction running on the scheduler
// — budgeted slices, morsel-parallel, pressure-triggered — must be
// invisible to every reader. The scheduler runs on its fixed tuning; tests
// that want passes overlapping writers and pinned snapshots constantly
// kick it from a goroutine (openKicked), and the budget cut is driven
// directly through the slice runner.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"livegraph/internal/tel"
	"livegraph/internal/wal"
)

// openKicked opens a graph whose scheduler is kicked every 100µs until the
// test ends: background passes — the real pass path, budgeted and
// single-flight with CompactNow — keep racing whatever the test does.
// Kicks do nothing on a graph opened with CompactEvery < 0.
func openKicked(t testing.TB, opts Options) *Graph {
	t.Helper()
	g, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				g.maintSched.Kick()
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		g.Close()
	})
	return g
}

// retryCommit is livegraph.Update's retry loop, local to the core tests.
func retryCommit(g *Graph, maxRetries int, fn func(tx *Tx) error) error {
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		var tx *Tx
		tx, err = g.Begin()
		if err != nil {
			return err
		}
		if err = fn(tx); err != nil {
			tx.Abort()
			if IsRetryable(err) {
				continue
			}
			return err
		}
		if err = tx.Commit(); err == nil {
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
	}
	return err
}

func waitMaint(t *testing.T, g *Graph, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (maint stats: passes=%d slices=%d)",
				what, g.MaintStats().Passes.Load(), g.MaintStats().Slices.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMaintBackgroundPassesFire checks the pressure triggers end to end:
// sustained churn alone (no CompactNow, no kicks) must start passes,
// compact vertices and keep TELs near their live size. Each upsert leaves
// a 16 KiB version dead, so the churn crosses the 4 MiB dead-bytes
// trigger (and the floor's 1/8 of it long before).
func TestMaintBackgroundPassesFire(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
	})
	props := make([]byte, 16<<10)
	for i := 0; i < 300; i++ {
		props[0] = byte(i)
		mustCommit(t, g, func(tx *Tx) {
			tx.AddEdge(a, 0, b, props)
		})
	}
	waitMaint(t, g, "background pass", func() bool {
		return g.MaintStats().Passes.Load() >= 1 && g.MaintStats().VerticesCompacted.Load() >= 1
	})
	// Let maintenance catch up with the tail of the churn, then verify
	// the TEL was actually compacted (live size is 1 edge).
	waitMaint(t, g, "TEL compaction", func() bool { return listOf(g, a, 0).Len() < 100 })
	r, _ := g.BeginRead()
	defer r.Commit()
	if d := r.Degree(a, 0); d != 1 {
		t.Fatalf("degree %d after background compaction, want 1", d)
	}
	if p, err := r.GetEdge(a, 0, b); err != nil || p[0] != byte(299&0xff) {
		t.Fatalf("edge after background compaction: %v %v", p, err)
	}
}

// TestMaintConcurrentWritersAndTemporalReaders churns edges from several
// writers while SnapshotAt readers walk retained history and background
// passes, kicked constantly, run beside them. Every reader must see a
// consistent count: each (writer, slot) edge is upserted, so degree per
// writer stays the slot population regardless of when compaction lands.
func TestMaintConcurrentWritersAndTemporalReaders(t *testing.T) {
	g := openKicked(t, Options{HistoryRetention: 1 << 30})
	const writers, slots, rounds = 4, 16, 40
	var hub VertexID
	mustCommit(t, g, func(tx *Tx) {
		hub, _ = tx.AddVertex([]byte("hub"))
		for w := 0; w < writers; w++ {
			for s := 0; s < slots; s++ {
				tx.AddVertex(nil)
			}
		}
	})
	base := g.ReadEpoch()

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Upsert this writer's whole slot range on its own label:
				// visible degree stays exactly `slots` at every epoch
				// after the first round. All writers contend on the hub
				// vertex lock, so retry transient aborts.
				err := retryCommit(g, 16, func(tx *Tx) error {
					for s := 0; s < slots; s++ {
						dst := VertexID(1 + w*slots + s)
						if err := tx.AddEdge(hub, Label(w), dst, []byte{byte(r)}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	// Temporal readers: pin snapshots at historical epochs mid-churn and
	// check per-label degrees are always a multiple of nothing strange —
	// exactly 0 (label not yet written at that epoch) or slots.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for i := 0; i < 3; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				at := base + (g.ReadEpoch()-base)/2
				snap, err := g.SnapshotAt(at)
				if err != nil {
					continue // epoch raced out of retention bounds
				}
				for w := 0; w < writers; w++ {
					if d := snap.Degree(hub, Label(w)); d != 0 && d != slots {
						t.Errorf("SnapshotAt(%d): degree(label %d) = %d, want 0 or %d", at, w, d, slots)
					}
				}
				snap.Release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final state: every label holds exactly its slot population.
	g.CompactNow()
	r, _ := g.BeginRead()
	defer r.Commit()
	for w := 0; w < writers; w++ {
		if d := r.Degree(hub, Label(w)); d != slots {
			t.Fatalf("final degree(label %d) = %d, want %d", w, d, slots)
		}
	}
}

// TestCompactNowSingleFlight runs CompactNow from many goroutines while
// background passes fire: all calls funnel through the scheduler, no two
// passes overlap (the race detector would flag the shared drain buffer),
// and the final state is fully compacted. A graph with CompactEvery < 0
// has no background passes, and its CompactNow takes the same path.
func TestCompactNowSingleFlight(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
	}{{"triggers", Options{}}, {"no-triggers", Options{CompactEvery: -1}}} {
		t.Run(c.name, func(t *testing.T) {
			g := openKicked(t, c.opts)
			var a, b VertexID
			mustCommit(t, g, func(tx *Tx) {
				a, _ = tx.AddVertex(nil)
				b, _ = tx.AddVertex(nil)
			})
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for r := 0; r < 50; r++ {
						// Per-goroutine labels: upserts of the same edge
						// from different writers would conflict by design.
						// The shared src vertex still contends on its lock
						// — retry.
						if err := retryCommit(g, 16, func(tx *Tx) error {
							return tx.AddEdge(a, Label(i), b, []byte{byte(i), byte(r)})
						}); err != nil {
							t.Error(err)
							return
						}
						if r%10 == 0 {
							g.CompactNow()
						}
					}
				}(i)
			}
			wg.Wait()
			g.CompactNow()
			if n := listOf(g, a, 0).Len(); n != 1 {
				t.Fatalf("TEL has %d entries after CompactNow, want 1", n)
			}
			if g.MaintStats().Passes.Load() == 0 {
				t.Fatal("no maintenance passes recorded")
			}
		})
	}
}

// TestMaintFollowerCompacts is the replica-reclamation fix: a follower
// fed dirty marks through ApplyEpoch must run background passes under
// the same pressure triggers as a primary, keeping its footprint at the
// live working set instead of the full version history. Each upsert
// leaves an 8 KiB version dead, so one catch-up of 10 rounds crosses the
// floor's threshold (1/8 of the 4 MiB dead-bytes trigger: 64 versions)
// and what the follower leaves uncompacted stays under 64 versions. With
// 1-byte properties the whole churn would stay under that threshold,
// garbage the scheduler leaves alone by design.
func TestMaintFollowerCompacts(t *testing.T) {
	dir := t.TempDir()
	primary := openDurable(t, dir)
	defer primary.Close()

	follower := openFollower(t, Options{})
	tl := wal.Tail(dir, 0, primary.DurableEpoch)
	defer tl.Close()

	// Sustained churn: the same 32 edges upserted over and over. Live
	// state stays 32 edges; an uncompacted follower would accumulate
	// every version.
	var a VertexID
	mustCommit(t, primary, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		for s := 0; s < 32; s++ {
			tx.AddVertex(nil)
		}
	})
	props := make([]byte, 8<<10)
	for r := 0; r < 60; r++ {
		props[0] = byte(r)
		mustCommit(t, primary, func(tx *Tx) {
			for s := 0; s < 32; s++ {
				tx.AddEdge(a, 0, VertexID(1+s), props)
			}
		})
		if r%10 == 0 {
			catchUp(t, tl, follower)
		}
	}
	catchUp(t, tl, follower)

	waitMaint(t, follower, "follower background compaction", func() bool {
		return follower.MaintStats().Passes.Load() >= 1 &&
			listOf(follower, a, 0) != nil && listOf(follower, a, 0).Len() < 150
	})
	// The follower's live degree is intact...
	snap, err := follower.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if d := snap.Degree(a, 0); d != 32 {
		t.Fatalf("follower degree %d, want 32", d)
	}
	// ...and its footprint is bounded: within a small factor of the
	// compacted primary's, not the ~60x of the full history.
	primary.CompactNow()
	follower.CompactNow()
	pw := primary.AllocStats().AllocatedWords
	fw := follower.AllocStats().AllocatedWords
	if fw > 4*pw {
		t.Fatalf("follower footprint %d words vs primary %d: unbounded growth", fw, pw)
	}
}

// TestCompactionKeepsDeadBytes: a compaction that keeps an entry
// invalidated above its floor (a pinned snapshot still sees it) counts that
// entry in the new block's dead bytes. A block that claimed none would be
// settled past the invalidation, and a reader there would see both
// versions of the edge.
func TestCompactionKeepsDeadBytes(t *testing.T) {
	g, err := Open(Options{Workers: 4, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 3; i++ {
			tx.AddVertex(nil)
		}
		tx.InsertEdge(0, 0, 1, []byte("old"))
		tx.InsertEdge(0, 0, 2, []byte("gone"))
	})
	// Dead below the floor, so compaction copies the list.
	mustCommit(t, g, func(tx *Tx) {
		if err := tx.DeleteEdge(0, 0, 2); err != nil {
			t.Fatal(err)
		}
	})
	pinned, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Release()
	mustCommit(t, g, func(tx *Tx) {
		if err := tx.AddEdge(0, 0, 1, []byte("new!")); err != nil {
			t.Fatal(err)
		}
	})
	before, _ := g.telFor(0, 0)
	g.CompactNow()
	after, _ := g.telFor(0, 0)
	if after.Ref() == before.Ref() || after.Len() != 2 {
		t.Fatalf("compaction kept %d entries in block %v (was %v), want 2 in a new block", after.Len(), after.Ref(), before.Ref())
	}
	if want := int64(tel.EntryWords*8 + len("old")); after.DeadBytes() != want {
		t.Fatalf("compacted block DeadBytes = %d, want %d (the kept old version)", after.DeadBytes(), want)
	}
	cur, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	for _, c := range []struct {
		s    *Snapshot
		want string
	}{{pinned, "old"}, {cur, "new!"}} {
		if d := c.s.Degree(0, 0); d != 1 {
			t.Fatalf("Degree at %d = %d, want 1", c.s.ReadEpoch(), d)
		}
		var got []string
		c.s.ScanNeighbors(0, 0, func(dst VertexID, props []byte) bool {
			got = append(got, fmt.Sprintf("%d:%s", dst, props))
			return true
		})
		if len(got) != 1 || got[0] != "1:"+c.want {
			t.Fatalf("scan at %d = %v, want [1:%s]", c.s.ReadEpoch(), got, c.want)
		}
	}
}

// TestMaintSliceBudgetCut drives the budget cut through the slice runner
// itself: a slice whose deadline has already passed still compacts morsel
// 0, reports the cut, and puts every vertex it did not reach back into the
// dirty set with its dead-bytes estimate, so the pressure drops by exactly
// the processed vertices' share.
func TestMaintSliceBudgetCut(t *testing.T) {
	g, err := Open(Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const n = 4 * maintMorselSize
	mustCommit(t, g, func(tx *Tx) {
		for v := 0; v < n; v++ {
			tx.AddVertex(nil)
		}
	})
	// Vertex v upserts its self-edge 2 + v%5 times with v+1 property
	// bytes, so every vertex carries garbage and its own estimate.
	for v := 0; v < n; v++ {
		for k := 0; k < 2+v%5; k++ {
			mustCommit(t, g, func(tx *Tx) {
				tx.AddEdge(VertexID(v), 0, VertexID(v), bytes.Repeat([]byte{byte(k)}, v+1))
			})
		}
	}
	// Read each vertex's estimate: drain the set and mark it back as it
	// was.
	want := map[int64]int64{}
	for _, d := range g.dirty.Drain(int(g.dirty.Len()), nil) {
		want[d.ID] = d.Dead
		g.dirty.Mark(d.ID, d.Dead)
	}
	if len(want) != n {
		t.Fatalf("%d dirty vertices, want %d", len(want), n)
	}
	dirty0, dead0 := g.MaintPressure()

	processed, cut, more := maintRunner{g}.MaintSlice(n, time.Now().Add(-time.Second))
	if processed != maintMorselSize || !cut || !more {
		t.Fatalf("MaintSlice past its deadline = (%d, %v, %v), want (%d, true, true)", processed, cut, more, maintMorselSize)
	}
	dirty1, dead1 := g.MaintPressure()
	back := map[int64]int64{}
	for _, d := range g.dirty.Drain(int(dirty1), nil) {
		back[d.ID] = d.Dead
	}
	var share int64
	for id, dead := range want {
		entries := listOf(g, VertexID(id), 0).Len()
		if got, ok := back[id]; ok {
			if got != dead {
				t.Errorf("vertex %d re-marked with estimate %d, had %d", id, got, dead)
			}
			if entries == 1 {
				t.Errorf("vertex %d was compacted but is still dirty", id)
			}
			continue
		}
		share += dead
		if entries != 1 {
			t.Errorf("processed vertex %d kept %d entries, want 1", id, entries)
		}
	}
	if len(back) != n-processed || dirty1 != dirty0-int64(processed) {
		t.Fatalf("%d vertices re-marked, pressure %d → %d; want %d left", len(back), dirty0, dirty1, n-processed)
	}
	if dead1 != dead0-share {
		t.Fatalf("dead-bytes estimate %d → %d, want a drop of exactly %d", dead0, dead1, share)
	}
}

// TestAbortLeavesNoDirtyMarks: a vertex joins the maintenance dirty set
// when a change to it commits, not when a transaction writes it — an
// aborted transaction's edge writes leave the pressure at zero, and the
// same writes committed mark each source once.
func TestAbortLeavesNoDirtyMarks(t *testing.T) {
	g, err := Open(Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mustCommit(t, g, func(tx *Tx) { tx.InsertEdge(5, 0, 6, nil) })
	g.dirty.Drain(int(g.dirty.Len()), nil)
	writes := func(tx *Tx) {
		for _, err := range []error{
			tx.InsertEdge(1, 0, 2, nil),
			tx.AddEdge(3, 0, 4, []byte("p")),
			tx.DeleteEdge(5, 0, 6),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	writes(tx)
	tx.Abort()
	if dirty, dead := g.MaintPressure(); dirty != 0 || dead != 0 {
		t.Fatalf("MaintPressure after an aborted transaction = (%d, %d), want (0, 0)", dirty, dead)
	}
	mustCommit(t, g, writes)
	if dirty, _ := g.MaintPressure(); dirty != 3 {
		t.Fatalf("%d dirty vertices after committing writes to 3 sources, want 3", dirty)
	}
}
