package core

// Background-maintenance correctness: compaction running on the scheduler
// — budgeted slices, morsel-parallel, pressure-triggered — must be
// invisible to every reader, no matter how aggressive the budget. These
// tests run the engine with deliberately tiny slices and hair-trigger
// thresholds so passes overlap writers and pinned snapshots constantly.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"livegraph/internal/tel"
	"livegraph/internal/wal"
)

// aggressiveMaint returns a maintenance configuration tuned to fire
// constantly: tiny slices, near-zero thresholds, millisecond floor.
func aggressiveMaint() MaintOptions {
	return MaintOptions{
		SliceVertices:    8,
		SliceBudget:      50 * time.Microsecond,
		Yield:            10 * time.Microsecond,
		Interval:         2 * time.Millisecond,
		DirtyTrigger:     4,
		DeadBytesTrigger: 256,
		Workers:          4,
	}
}

func openAggressive(t testing.TB, opts Options) *Graph {
	t.Helper()
	opts.Maint = aggressiveMaint()
	g, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
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
// sustained churn alone (no CompactNow) must start passes, compact
// vertices and keep TELs near their live size.
func TestMaintBackgroundPassesFire(t *testing.T) {
	g := openAggressive(t, Options{})
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
	})
	for i := 0; i < 300; i++ {
		mustCommit(t, g, func(tx *Tx) {
			tx.AddEdge(a, 0, b, []byte{byte(i)})
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
// passes run with an aggressive budget. Every reader must see a
// consistent count: each (writer, slot) edge is upserted, so degree per
// writer stays the slot population regardless of when compaction lands.
func TestMaintConcurrentWritersAndTemporalReaders(t *testing.T) {
	g := openAggressive(t, Options{HistoryRetention: 1 << 30})
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
// pressure triggers fire: all calls funnel through the scheduler, no two
// passes overlap (the race detector would flag the shared drain buffer),
// and the final state is fully compacted.
func TestCompactNowSingleFlight(t *testing.T) {
	g := openAggressive(t, Options{})
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
				// Per-goroutine labels: upserts of the same edge from
				// different writers would conflict by design. The shared
				// src vertex still contends on its lock — retry.
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
}

// TestMaintFollowerCompacts is the replica-reclamation fix: a follower
// fed dirty marks through ApplyEpoch must run background passes under
// the same pressure triggers as a primary, keeping its footprint at the
// live working set instead of the full version history.
func TestMaintFollowerCompacts(t *testing.T) {
	dir := t.TempDir()
	primary := openDurable(t, dir)
	defer primary.Close()

	follower := openFollower(t, Options{Maint: aggressiveMaint()})
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
	for r := 0; r < 150; r++ {
		mustCommit(t, primary, func(tx *Tx) {
			for s := 0; s < 32; s++ {
				tx.AddEdge(a, 0, VertexID(1+s), []byte{byte(r)})
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
	// compacted primary's, not the ~150x of the full history.
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
			t.Fatalf("Degree at %d = %d, want 1", c.s.Epoch(), d)
		}
		var got []string
		c.s.ScanNeighbors(0, 0, func(dst VertexID, props []byte) bool {
			got = append(got, fmt.Sprintf("%d:%s", dst, props))
			return true
		})
		if len(got) != 1 || got[0] != "1:"+c.want {
			t.Fatalf("scan at %d = %v, want [1:%s]", c.s.Epoch(), got, c.want)
		}
	}
}
