package core

// Tests of commit-time placement: a list a transaction creates is built in
// Go-heap words, read there by the transaction itself, and placed in the
// arena once, at commit — or never, if the transaction aborts.

import (
	"context"
	"errors"
	"slices"
	"testing"

	"livegraph/internal/bloom"
	"livegraph/internal/iosim"
	"livegraph/internal/storage"
	"livegraph/internal/tel"
)

// roomBytes is what a block of the class holds past its header and filter.
func roomBytes(class int) int {
	words := storage.WordCap(class)
	return (words - tel.HeaderWords - bloom.WordsFor(words)) * 8
}

// TestNewListPlacedOnceInCreationOrder: lists created and filled in one
// transaction never upgrade; each lands in the tightest class that holds
// it, and the lists of the batch sit at ascending, adjacent offsets in the
// order the transaction created them, whatever their vertex IDs.
func TestNewListPlacedOnceInCreationOrder(t *testing.T) {
	g := openMem(t)
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 8; i++ {
			tx.AddVertex(nil)
		}
	})
	srcs := []VertexID{5, 2, 7, 3} // creation order
	degs := []int{1, 40, 300, 7}
	props := []byte("0123456789abcdef")
	upgrades := g.stats.Upgrades.Load()
	mustCommit(t, g, func(tx *Tx) {
		// Round-robin, so every list grows privately while the others do.
		for round := 0; round < slices.Max(degs); round++ {
			for k, src := range srcs {
				if round < degs[k] {
					if err := tx.InsertEdge(src, 0, VertexID(100+round), props); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})
	if n := g.stats.Upgrades.Load() - upgrades; n != 0 {
		t.Fatalf("%d upgrades placing lists built in one transaction, want 0", n)
	}
	var prev storage.Ref
	for k, src := range srcs {
		l := listOf(g, src, 0)
		if l == nil {
			t.Fatalf("list of %d not placed", src)
		}
		r := l.Ref()
		need := degs[k] * (tel.EntryWords*8 + len(props))
		if c := r.Class(); roomBytes(c) < need || (c > 0 && roomBytes(c-1) >= need) {
			t.Errorf("list of %d (%d B of entries and properties) in class %d (%d B), not the tightest", src, need, c, storage.WordCap(c)*8)
		}
		if prev != 0 && r.Off() != prev.Off()+int64(storage.WordCap(prev.Class())) {
			t.Errorf("list of %d at offset %d, want %d: right after the list created before it", src, r.Off(), prev.Off()+int64(storage.WordCap(prev.Class())))
		}
		prev = r
	}
	r, _ := g.BeginRead()
	defer r.Commit()
	for k, src := range srcs {
		if d := r.Degree(src, 0); d != degs[k] {
			t.Errorf("degree of %d: %d, want %d", src, d, degs[k])
		}
		for it := r.Neighbors(src, 0); it.Next(); {
			if string(it.Props()) != string(props) {
				t.Fatalf("list of %d: props %q after placement", src, it.Props())
			}
		}
	}
}

// TestAbortedCreatorLeavesNothing: a transaction that creates lists and
// aborts — explicitly, or by committing with a done context — leaves no
// label entry and no block behind.
func TestAbortedCreatorLeavesNothing(t *testing.T) {
	g := openMem(t)
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 4; i++ {
			tx.AddVertex(nil)
		}
		tx.InsertEdge(0, 0, 1, nil) // vertex 0 has a label index; 1 has none
	})
	blocks := g.AllocStats().AllocatedBlocks
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, end := range []func(*Tx) error{
		func(tx *Tx) error { tx.Abort(); return nil },
		func(tx *Tx) error { return tx.CommitCtx(done) },
	} {
		tx, _ := g.Begin()
		for i := 0; i < 100; i++ {
			if err := tx.InsertEdge(1, 0, VertexID(10+i), []byte("props")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.AddEdge(0, 1, 2, nil); err != nil {
			t.Fatal(err)
		}
		if err := end(tx); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		if g.eindex.Get(1) != nil || listOf(g, 0, 1) != nil {
			t.Fatal("an aborted transaction's new list is in the label index")
		}
		if n := g.AllocStats().AllocatedBlocks; n != blocks {
			t.Fatalf("%d blocks allocated after the abort, want %d", n, blocks)
		}
	}
}

// TestTxReadsOwnUnplacedList: until commit a new list is the transaction's
// own, and every read path of the transaction sees it — scan, degree, point
// lookup — as does an upsert that must find its own insert; other readers
// see nothing until the commit.
func TestTxReadsOwnUnplacedList(t *testing.T) {
	g := openMem(t)
	tx, _ := g.Begin()
	for i := 0; i < 50; i++ {
		if err := tx.InsertEdge(1, 0, VertexID(100+i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if listOf(g, 1, 0) != nil {
		t.Fatal("the list is in the label index before commit")
	}
	var dsts []VertexID
	for it := tx.Neighbors(1, 0); it.Next(); {
		dsts = append(dsts, it.Dst())
	}
	if len(dsts) != 50 || dsts[0] != 149 || dsts[49] != 100 {
		t.Fatalf("own scan: %v, want 149 down to 100", dsts)
	}
	if d := tx.Degree(1, 0); d != 50 {
		t.Fatalf("own degree %d, want 50", d)
	}
	if p, err := tx.GetEdge(1, 0, 120); err != nil || string(p) != string([]byte{20}) {
		t.Fatalf("own GetEdge: %q, %v", p, err)
	}
	if _, err := tx.GetEdge(1, 0, 999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetEdge of an edge never written: %v", err)
	}
	if err := tx.AddEdge(1, 0, 120, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if d := tx.Degree(1, 0); d != 50 {
		t.Fatalf("degree %d after upserting an own insert, want 50", d)
	}
	if p, err := tx.GetEdge(1, 0, 120); err != nil || string(p) != "new" {
		t.Fatalf("own GetEdge after upsert: %q, %v", p, err)
	}
	r, _ := g.BeginRead()
	if d := r.Degree(1, 0); d != 0 {
		t.Fatalf("another reader sees %d edges of an uncommitted list", d)
	}
	r.Commit()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, _ = g.BeginRead()
	defer r.Commit()
	if d := r.Degree(1, 0); d != 50 {
		t.Fatalf("committed degree %d, want 50", d)
	}
	if p, err := r.GetEdge(1, 0, 120); err != nil || string(p) != "new" {
		t.Fatalf("committed GetEdge: %q, %v", p, err)
	}
}

// TestPrivateListChargesNoPages: under the out-of-core simulation, a
// transaction reading its own unplaced list touches no arena page — the
// list has none — while the placed list is charged like any other.
func TestPrivateListChargesNoPages(t *testing.T) {
	pc := iosim.NewPageCache(iosim.NewDevice(iosim.Null), 64<<10)
	g, err := Open(Options{PageCache: pc})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	touches := func() int64 { s := pc.Stats(); return s.Hits + s.Misses }
	read := func(tx *Tx) {
		for it := tx.Neighbors(1, 0); it.Next(); {
		}
		tx.Degree(1, 0)
		tx.GetEdge(1, 0, 150)
	}
	tx, _ := g.Begin()
	for i := 0; i < 200; i++ {
		tx.InsertEdge(1, 0, VertexID(100+i), make([]byte, 32))
	}
	before := touches()
	read(tx)
	if n := touches() - before; n != 0 {
		t.Fatalf("reading an unplaced list touched %d pages, want 0", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, _ := g.BeginRead()
	defer r.Commit()
	before = touches()
	read(r)
	if touches() == before {
		t.Fatal("reading the placed list touched no page")
	}
}
