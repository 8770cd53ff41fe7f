package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"livegraph/internal/tel"
)

func openMem(t testing.TB) *Graph {
	t.Helper()
	g, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// listOf returns the current TEL of (v, label), or nil if there is none.
func listOf(g *Graph, v VertexID, label Label) *tel.TEL {
	t, ok := g.telFor(v, label)
	if !ok {
		return nil
	}
	return &t
}

// mustCommit runs fn inside a write transaction and commits.
func mustCommit(t testing.TB, g *Graph, fn func(tx *Tx)) {
	t.Helper()
	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	fn(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestVertexCRUD(t *testing.T) {
	g := openMem(t)
	var id VertexID
	mustCommit(t, g, func(tx *Tx) {
		var err error
		id, err = tx.AddVertex([]byte("alice"))
		if err != nil {
			t.Fatal(err)
		}
		// Own write visible pre-commit.
		data, err := tx.GetVertex(id)
		if err != nil || string(data) != "alice" {
			t.Fatalf("own write: %q %v", data, err)
		}
	})
	tx, _ := g.BeginRead()
	data, err := tx.GetVertex(id)
	if err != nil || string(data) != "alice" {
		t.Fatalf("after commit: %q %v", data, err)
	}
	tx.Commit()

	mustCommit(t, g, func(tx *Tx) {
		if err := tx.PutVertex(id, []byte("alice2")); err != nil {
			t.Fatal(err)
		}
	})
	tx, _ = g.BeginRead()
	data, _ = tx.GetVertex(id)
	if string(data) != "alice2" {
		t.Fatalf("after update: %q", data)
	}
	tx.Commit()

	mustCommit(t, g, func(tx *Tx) {
		if err := tx.DeleteVertex(id); err != nil {
			t.Fatal(err)
		}
	})
	tx, _ = g.BeginRead()
	if _, err := tx.GetVertex(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: err=%v", err)
	}
	tx.Commit()
}

func TestEdgeInsertScan(t *testing.T) {
	g := openMem(t)
	var a, b, c VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
		c, _ = tx.AddVertex(nil)
		if err := tx.InsertEdge(a, 0, b, []byte("e1")); err != nil {
			t.Fatal(err)
		}
		if err := tx.InsertEdge(a, 0, c, []byte("e2")); err != nil {
			t.Fatal(err)
		}
		// Own writes visible in scan.
		if d := tx.Degree(a, 0); d != 2 {
			t.Fatalf("own degree %d", d)
		}
	})
	tx, _ := g.BeginRead()
	defer tx.Commit()
	it := tx.Neighbors(a, 0)
	var dsts []VertexID
	var props []string
	for it.Next() {
		dsts = append(dsts, it.Dst())
		props = append(props, string(it.Props()))
	}
	// Newest first.
	if len(dsts) != 2 || dsts[0] != c || dsts[1] != b {
		t.Fatalf("dsts %v", dsts)
	}
	if props[0] != "e2" || props[1] != "e1" {
		t.Fatalf("props %v", props)
	}
	if p, err := tx.GetEdge(a, 0, b); err != nil || string(p) != "e1" {
		t.Fatalf("GetEdge %q %v", p, err)
	}
}

func TestEdgeLabelsSeparate(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
		tx.InsertEdge(a, 1, b, []byte("friend"))
		tx.InsertEdge(a, 2, b, []byte("posted"))
	})
	tx, _ := g.BeginRead()
	defer tx.Commit()
	if d := tx.Degree(a, 1); d != 1 {
		t.Fatalf("label 1 degree %d", d)
	}
	if d := tx.Degree(a, 2); d != 1 {
		t.Fatalf("label 2 degree %d", d)
	}
	if d := tx.Degree(a, 3); d != 0 {
		t.Fatalf("label 3 degree %d", d)
	}
	p, _ := tx.GetEdge(a, 1, b)
	if string(p) != "friend" {
		t.Fatalf("label 1 props %q", p)
	}
}

func TestEdgeUpsertAndDelete(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
		tx.AddEdge(a, 0, b, []byte("v1"))
	})
	mustCommit(t, g, func(tx *Tx) {
		if err := tx.AddEdge(a, 0, b, []byte("v2")); err != nil {
			t.Fatal(err)
		}
	})
	tx, _ := g.BeginRead()
	if d := tx.Degree(a, 0); d != 1 {
		t.Fatalf("degree after upsert %d, want 1", d)
	}
	p, _ := tx.GetEdge(a, 0, b)
	if string(p) != "v2" {
		t.Fatalf("props %q", p)
	}
	tx.Commit()

	mustCommit(t, g, func(tx *Tx) {
		if err := tx.DeleteEdge(a, 0, b); err != nil {
			t.Fatal(err)
		}
	})
	tx, _ = g.BeginRead()
	if d := tx.Degree(a, 0); d != 0 {
		t.Fatalf("degree after delete %d", d)
	}
	if _, err := tx.GetEdge(a, 0, b); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v", err)
	}
	tx.Commit()

	// Deleting a non-existent edge reports not-found without aborting.
	tx2, _ := g.Begin()
	if err := tx2.DeleteEdge(a, 0, 999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	if err := tx2.InsertEdge(a, 0, b, nil); err != nil {
		t.Fatalf("tx should still be usable: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockUpgradeGrowth: a list that grows across transactions outgrows
// its block and is upgraded, with every entry and property carried over.
// (A list filled by the transaction that creates it is placed once, at
// commit, and never upgrades: TestNewListPlacedOnceInCreationOrder.)
func TestBlockUpgradeGrowth(t *testing.T) {
	g := openMem(t)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) { a, _ = tx.AddVertex(nil) })
	for lo := 0; lo < 500; lo += 100 {
		mustCommit(t, g, func(tx *Tx) {
			for i := lo; i < lo+100; i++ {
				if err := tx.InsertEdge(a, 0, VertexID(1000+i), []byte("pppp")); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if g.Stats().Upgrades.Load() == 0 {
		t.Fatal("expected at least one block upgrade")
	}
	tx, _ := g.BeginRead()
	defer tx.Commit()
	if d := tx.Degree(a, 0); d != 500 {
		t.Fatalf("degree %d, want 500", d)
	}
	// All properties intact after upgrades.
	it := tx.Neighbors(a, 0)
	for it.Next() {
		if string(it.Props()) != "pppp" {
			t.Fatalf("props corrupted: %q", it.Props())
		}
	}
}

func TestSnapshotIsolationReadersDontSeeLaterCommits(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex([]byte("v0"))
		b, _ = tx.AddVertex(nil)
		tx.InsertEdge(a, 0, b, nil)
	})
	// Start a reader, then commit more writes.
	r, _ := g.BeginRead()
	mustCommit(t, g, func(tx *Tx) {
		tx.PutVertex(a, []byte("v1"))
		tx.InsertEdge(a, 0, 777, nil)
	})
	// The old reader still sees the old state.
	data, _ := r.GetVertex(a)
	if string(data) != "v0" {
		t.Fatalf("reader saw %q, want v0", data)
	}
	if d := r.Degree(a, 0); d != 1 {
		t.Fatalf("reader degree %d, want 1", d)
	}
	r.Commit()
	// A new reader sees the new state.
	r2, _ := g.BeginRead()
	data, _ = r2.GetVertex(a)
	if string(data) != "v1" {
		t.Fatalf("new reader saw %q", data)
	}
	if d := r2.Degree(a, 0); d != 2 {
		t.Fatalf("new reader degree %d", d)
	}
	r2.Commit()
}

func TestWriteWriteConflictAborts(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex([]byte("x"))
		b, _ = tx.AddVertex(nil)
		tx.AddEdge(a, 0, b, []byte("v1"))
	})
	// tx1 snapshots, then tx2 commits an update, then tx1 tries to update.
	tx1, _ := g.Begin()
	mustCommit(t, g, func(tx *Tx) {
		tx.AddEdge(a, 0, b, []byte("v2"))
	})
	err := tx1.AddEdge(a, 0, b, []byte("v3"))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	// tx1 is aborted; further use fails.
	if err := tx1.InsertEdge(a, 0, 5, nil); !errors.Is(err, ErrTxDone) {
		t.Fatalf("aborted tx usable: %v", err)
	}
	// Vertex conflicts too.
	tx3, _ := g.Begin()
	mustCommit(t, g, func(tx *Tx) { tx.PutVertex(a, []byte("y")) })
	if err := tx3.PutVertex(a, []byte("z")); !errors.Is(err, ErrConflict) {
		t.Fatalf("vertex conflict: %v", err)
	}
	// The winning value survives.
	r, _ := g.BeginRead()
	defer r.Commit()
	if p, _ := r.GetEdge(a, 0, b); string(p) != "v2" {
		t.Fatalf("edge %q", p)
	}
	if d, _ := r.GetVertex(a); string(d) != "y" {
		t.Fatalf("vertex %q", d)
	}
}

// TestConcurrentUpsertNeverDuplicates is the regression test for a subtle
// snapshot-isolation bug: if T2's snapshot predates T1's *insert* of edge
// (a,b), the version T1 created is invisible to T2's scan, so T2 would
// conclude the edge is new and append a duplicate. The CT-vs-TRE check in
// invalidatePrev must abort T2 instead.
func TestConcurrentUpsertNeverDuplicates(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
	})
	// T2 snapshots before T1 inserts.
	t2, _ := g.Begin()
	mustCommit(t, g, func(tx *Tx) {
		if err := tx.AddEdge(a, 0, b, []byte("t1")); err != nil {
			t.Fatal(err)
		}
	})
	err := t2.AddEdge(a, 0, b, []byte("t2"))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("upsert against invisible concurrent insert: err=%v", err)
	}
	r, _ := g.BeginRead()
	defer r.Commit()
	if d := r.Degree(a, 0); d != 1 {
		t.Fatalf("degree %d, want 1 (duplicate upsert!)", d)
	}
}

func TestAbortRevertsInvalidations(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
		tx.AddEdge(a, 0, b, []byte("keep"))
	})
	tx, _ := g.Begin()
	if err := tx.DeleteEdge(a, 0, b); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	r, _ := g.BeginRead()
	defer r.Commit()
	if p, err := r.GetEdge(a, 0, b); err != nil || string(p) != "keep" {
		t.Fatalf("edge lost after abort: %q %v", p, err)
	}
}

func TestAbortedInsertInvisible(t *testing.T) {
	g := openMem(t)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) { a, _ = tx.AddVertex(nil) })
	tx, _ := g.Begin()
	tx.InsertEdge(a, 0, 42, []byte("ghost"))
	tx.Abort()
	r, _ := g.BeginRead()
	if d := r.Degree(a, 0); d != 0 {
		t.Fatalf("aborted edge visible, degree %d", d)
	}
	r.Commit()
	// A later committed insert overwrites the aborted slot.
	mustCommit(t, g, func(tx *Tx) { tx.InsertEdge(a, 0, 43, []byte("real")) })
	r2, _ := g.BeginRead()
	defer r2.Commit()
	it := r2.Neighbors(a, 0)
	count := 0
	for it.Next() {
		if it.Dst() != 43 || string(it.Props()) != "real" {
			t.Fatalf("unexpected edge %d %q", it.Dst(), it.Props())
		}
		count++
	}
	if count != 1 {
		t.Fatalf("count %d", count)
	}
}

func TestTransactionSeesOwnDeleteNotOthers(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
		tx.AddEdge(a, 0, b, nil)
	})
	tx, _ := g.Begin()
	tx.DeleteEdge(a, 0, b)
	if d := tx.Degree(a, 0); d != 0 {
		t.Fatalf("tx sees its own deleted edge, degree %d", d)
	}
	// Concurrent reader still sees it (uncommitted delete).
	r, _ := g.BeginRead()
	if d := r.Degree(a, 0); d != 1 {
		t.Fatalf("reader degree %d", d)
	}
	r.Commit()
	tx.Commit()
}

func TestInsertAndDeleteSameEdgeInOneTx(t *testing.T) {
	g := openMem(t)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) { a, _ = tx.AddVertex(nil) })
	mustCommit(t, g, func(tx *Tx) {
		tx.InsertEdge(a, 0, 9, nil)
		if err := tx.DeleteEdge(a, 0, 9); err != nil {
			t.Fatal(err)
		}
		if d := tx.Degree(a, 0); d != 0 {
			t.Fatalf("own view degree %d", d)
		}
	})
	r, _ := g.BeginRead()
	defer r.Commit()
	if d := r.Degree(a, 0); d != 0 {
		t.Fatalf("degree %d after insert+delete in one tx", d)
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	g := openMem(t)
	const workers, edges = 8, 200
	ids := make([]VertexID, workers)
	mustCommit(t, g, func(tx *Tx) {
		for i := range ids {
			ids[i], _ = tx.AddVertex(nil)
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < edges; i++ {
				tx, err := g.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.InsertEdge(ids[w], 0, VertexID(10000+i), nil); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	r, _ := g.BeginRead()
	defer r.Commit()
	for w := 0; w < workers; w++ {
		if d := r.Degree(ids[w], 0); d != edges {
			t.Fatalf("worker %d degree %d, want %d", w, d, edges)
		}
	}
}

func TestConcurrentContendedCounter(t *testing.T) {
	// All workers upsert the same edge; the property is a counter. Under
	// snapshot isolation with first-committer-wins, successful commits
	// serialize, so the final counter equals the number of successes.
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
		tx.AddEdge(a, 0, b, []byte{0})
	})
	const workers, attempts = 4, 100
	var successes int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				tx, err := g.Begin()
				if err != nil {
					return
				}
				p, err := tx.GetEdge(a, 0, b)
				if err != nil {
					tx.Abort()
					continue
				}
				v := p[0]
				if err := tx.AddEdge(a, 0, b, []byte{v + 1}); err != nil {
					continue // aborted on conflict
				}
				if err := tx.Commit(); err != nil {
					continue
				}
				mu.Lock()
				successes++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r, _ := g.BeginRead()
	defer r.Commit()
	p, err := r.GetEdge(a, 0, b)
	if err != nil {
		t.Fatal(err)
	}
	if int64(p[0]) != successes%256 {
		t.Fatalf("counter %d, successes %d (lost update!)", p[0], successes)
	}
	if successes == 0 {
		t.Fatal("no transaction ever succeeded")
	}
}

func TestReadersNeverBlockDuringWrites(t *testing.T) {
	g := openMem(t)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		for i := 0; i < 64; i++ {
			tx.InsertEdge(a, 0, VertexID(i+100), []byte("x"))
		}
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx, _ := g.Begin()
			tx.InsertEdge(a, 0, VertexID(1000+i), []byte("y"))
			tx.Commit()
		}
	}()
	for i := 0; i < 300; i++ {
		r, _ := g.BeginRead()
		base := 0
		it := r.Neighbors(a, 0)
		for it.Next() {
			base++
		}
		if base < 64 {
			t.Errorf("reader saw %d edges, want >= 64", base)
		}
		// Scan twice within the same snapshot: must be identical (no
		// phantom reads).
		again := r.Degree(a, 0)
		if again != base {
			t.Errorf("phantom: first scan %d, second %d", base, again)
		}
		r.Commit()
	}
	close(stop)
	wg.Wait()
}

func TestCompactionReclaimsDeadVersions(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
	})
	// 100 upserts of the same edge = 100 log entries, 99 dead.
	for i := 0; i < 100; i++ {
		mustCommit(t, g, func(tx *Tx) {
			tx.AddEdge(a, 0, b, []byte{byte(i)})
		})
	}
	before := listOf(g, a, 0).Len()
	if before < 100 {
		t.Fatalf("log has %d entries before compaction, want >= 100", before)
	}
	g.CompactNow()
	after := listOf(g, a, 0).Len()
	if after != 1 {
		t.Fatalf("log has %d entries after compaction, want 1", after)
	}
	r, _ := g.BeginRead()
	defer r.Commit()
	p, err := r.GetEdge(a, 0, b)
	if err != nil || p[0] != 99 {
		t.Fatalf("edge after compaction: %v %v", p, err)
	}
}

func TestCompactionPreservesPinnedSnapshots(t *testing.T) {
	g := openMem(t)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
		tx.AddEdge(a, 0, b, []byte("old"))
	})
	snap, _ := g.Snapshot()
	mustCommit(t, g, func(tx *Tx) { tx.AddEdge(a, 0, b, []byte("new")) })
	g.CompactNow()
	// The pinned snapshot must still see the old version.
	var got string
	snap.ScanNeighbors(a, 0, func(dst VertexID, props []byte) bool {
		got = string(props)
		return false
	})
	if got != "old" {
		t.Fatalf("pinned snapshot saw %q, want old", got)
	}
	snap.Release()
	// After release, compaction may drop it.
	g.CompactNow()
	r, _ := g.BeginRead()
	defer r.Commit()
	if p, _ := r.GetEdge(a, 0, b); string(p) != "new" {
		t.Fatalf("latest %q", p)
	}
}

func TestCompactionShrinksBlocks(t *testing.T) {
	g := openMem(t)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		for i := 0; i < 256; i++ {
			tx.InsertEdge(a, 0, VertexID(100+i), nil)
		}
	})
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 255; i++ {
			tx.DeleteEdge(a, 0, VertexID(100+i))
		}
	})
	bigClass := listOf(g, a, 0).Ref().Class()
	g.CompactNow()
	smallClass := listOf(g, a, 0).Ref().Class()
	if smallClass >= bigClass {
		t.Fatalf("block did not shrink: %d -> %d", bigClass, smallClass)
	}
	r, _ := g.BeginRead()
	defer r.Commit()
	if d := r.Degree(a, 0); d != 1 {
		t.Fatalf("degree %d", d)
	}
}

func TestGroupCommitBatchesConcurrentWriters(t *testing.T) {
	g := openMem(t)
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 64; i++ {
			tx.AddVertex(nil)
		}
	})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx, _ := g.Begin()
				tx.InsertEdge(VertexID(w), 0, VertexID(i), nil)
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	// GWE counts commit groups, so it can never exceed the number of
	// committed write transactions (801 including the setup commit).
	// Batching typically makes it much smaller, but that is timing-
	// dependent, so only the invariant is asserted.
	commits := g.Stats().Commits.Load()
	if gwe := g.epochs.WriteEpoch(); gwe > commits {
		t.Fatalf("GWE %d exceeds commit count %d", gwe, commits)
	}
}

func TestEmptyCommitAndReadOnlyErrors(t *testing.T) {
	g := openMem(t)
	tx, _ := g.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	r, _ := g.BeginRead()
	if _, err := r.AddVertex(nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only write: %v", err)
	}
	r.Commit()
}

func TestClosedGraph(t *testing.T) {
	g, _ := Open(Options{})
	g.Close()
	if _, err := g.Begin(); !errors.Is(err, ErrClosed) {
		t.Fatalf("begin on closed: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestManyVerticesAcrossChunks(t *testing.T) {
	// Exercise chunked index growth past one chunk (65536 slots).
	g := openMem(t)
	const n = 70000
	tx, _ := g.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.AddVertex(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, g, func(tx *Tx) {
		tx.InsertEdge(69999, 0, 3, []byte("far"))
	})
	r, _ := g.BeginRead()
	defer r.Commit()
	if p, err := r.GetEdge(69999, 0, 3); err != nil || string(p) != "far" {
		t.Fatalf("%q %v", p, err)
	}
}

func TestStatsBloomCounters(t *testing.T) {
	g := openMem(t)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		// Enough edges to have a real filter after upgrades.
		for i := 0; i < 200; i++ {
			tx.AddEdge(a, 0, VertexID(1000+i), nil)
		}
	})
	skips := g.Stats().BloomSkips.Load()
	if skips == 0 {
		t.Fatal("expected bloom early-rejections for fresh destinations")
	}
}

func BenchmarkInsertEdgeTx(b *testing.B) {
	g := openMem(b)
	mustCommit(b, g, func(tx *Tx) { tx.AddVertex(nil) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := g.Begin()
		tx.InsertEdge(0, 0, VertexID(i%1000+10), nil)
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeighborScan(b *testing.B) {
	g := openMem(b)
	var a VertexID
	mustCommit(b, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		for i := 0; i < 1000; i++ {
			tx.InsertEdge(a, 0, VertexID(i+10), nil)
		}
	})
	r, _ := g.BeginRead()
	defer r.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := r.Neighbors(a, 0)
		n := 0
		for it.Next() {
			n++
		}
		if n != 1000 {
			b.Fatal(n)
		}
	}
}

func ExampleGraph() {
	g, _ := Open(Options{})
	defer g.Close()
	tx, _ := g.Begin()
	alice, _ := tx.AddVertex([]byte("alice"))
	bob, _ := tx.AddVertex([]byte("bob"))
	tx.InsertEdge(alice, 0, bob, []byte("2024-01-01"))
	tx.Commit()

	r, _ := g.BeginRead()
	it := r.Neighbors(alice, 0)
	for it.Next() {
		data, _ := r.GetVertex(it.Dst())
		fmt.Printf("alice -> %s (since %s)\n", data, it.Props())
	}
	r.Commit()
	// Output: alice -> bob (since 2024-01-01)
}

// TestOutOfRangeIDsAndLabels: a write naming a negative vertex ID or a
// label outside [0, MaxLabel) is refused without aborting the
// transaction, no such op decodes from a log, and reads of one find
// nothing instead of panicking or growing a label-keyed index.
func TestOutOfRangeIDsAndLabels(t *testing.T) {
	g := openMem(t)
	mustCommit(t, g, func(tx *Tx) {
		a, _ := tx.AddVertex(nil)
		b, _ := tx.AddVertex(nil)
		for _, l := range []Label{-1, MaxLabel, 1 << 40} {
			for _, err := range []error{tx.InsertEdge(a, l, b, nil), tx.AddEdge(a, l, b, nil), tx.DeleteEdge(a, l, b)} {
				if !errors.Is(err, ErrOutOfRange) {
					t.Errorf("label %d: %v, want ErrOutOfRange", l, err)
				}
			}
		}
		for _, err := range []error{tx.InsertEdge(-1, 0, b, nil), tx.InsertEdge(a, 0, -1, nil), tx.PutVertex(-1, nil), tx.DeleteVertex(-1)} {
			if !errors.Is(err, ErrOutOfRange) {
				t.Errorf("negative vertex ID: %v, want ErrOutOfRange", err)
			}
		}
		if err := tx.InsertEdge(a, MaxLabel-1, b, nil); err != nil {
			t.Fatal(err)
		}
	})
	for _, rec := range [][]byte{
		appendEdgeOp(nil, opInsertEdge, 0, -1, 1, nil),
		appendEdgeOp(nil, opUpsertEdge, 0, MaxLabel, 1, nil),
		appendEdgeOp(nil, opDeleteEdge, 0, 0, -1, nil),
		appendVertexOp(nil, opPutVertex, -1, nil),
		appendVertexOp(nil, opDelVertex, MaxVertexID, nil),
		appendEdgeOp(nil, opInsertEdge, 1<<40, 0, 1, nil),
	} {
		if _, err := decodeOps(nil, rec); err == nil {
			t.Errorf("record %x decoded", rec)
		}
	}
	s, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if _, err := s.GetVertex(-1); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetVertex(-1): %v", err)
	}
	for _, l := range []Label{-1, 1 << 40} {
		if st := g.LabelDegreeStats(l); st.Lists != 0 || st.Edges != 0 {
			t.Errorf("LabelDegreeStats(%d) = %+v", l, st)
		}
		s.ScanIn(1, l, func(VertexID) bool { t.Errorf("ScanIn label %d found a source", l); return false })
		for _, d := range []Direction{DirectionAuto, DirectionTopDown, DirectionBottomUp} {
			if res, err := Traverse(0).Out(l).Dedup().Direction(d).Run(context.Background(), s); err != nil || len(res) != 0 {
				t.Errorf("Traverse(0).Out(%d) direction %d: %v %v", l, d, res, err)
			}
		}
	}
	if n := g.rev.Cap() + g.lstats.Cap(); n > 2*chunkSize {
		t.Errorf("label-keyed indexes grew to %d slots", n)
	}
}
