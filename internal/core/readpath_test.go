package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Tests for the read path over Refs: an adjacency list is reached through
// the label index's (label, Ref) values and a TEL view built on the spot,
// so reads allocate nothing, and a label added beside a list a transaction
// is growing must not lose that list's Ref swaps.

// TestReadPathAllocs: every point read and scan of a Snapshot and of a Tx
// — read-only, and a writer reading its own tentative list — allocates
// nothing.
func TestReadPathAllocs(t *testing.T) {
	g, err := Open(Options{Workers: 4, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	props := make([]byte, 32)
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 64; i++ {
			if err := tx.InsertEdge(1, 0, VertexID(i+2), props); err != nil {
				t.Fatal(err)
			}
		}
	})
	check := func(name string, r Reader) {
		t.Helper()
		var it EdgeIter
		reads := map[string]func(){
			"GetEdge": func() {
				if _, err := r.GetEdge(1, 0, 40); err != nil {
					t.Fatal(err)
				}
			},
			"GetEdge missing": func() { r.GetEdge(1, 0, 1000) },
			"Degree": func() {
				if d := r.Degree(1, 0); d != 64 {
					t.Fatalf("degree %d, want 64", d)
				}
			},
			"Degree no list": func() { r.Degree(1, 7) },
			"neighborsInto": func() {
				r.neighborsInto(&it, 1, 0)
				for it.Next() {
					_ = it.Dst()
					_ = it.Props()
				}
			},
		}
		if s, ok := r.(*Snapshot); ok {
			reads["ScanNeighbors"] = func() {
				s.ScanNeighbors(1, 0, func(VertexID, []byte) bool { return true })
			}
		}
		for what, read := range reads {
			if n := testing.AllocsPerRun(100, read); n != 0 {
				t.Errorf("%s %s: %v allocations a call, want 0", name, what, n)
			}
		}
	}

	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	check("Snapshot", snap)

	ro, err := g.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	check("read-only Tx", ro)
	ro.Commit()

	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if err := tx.InsertEdge(1, 0, 1000, props); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteEdge(1, 0, 1000); err != nil {
		t.Fatal(err)
	}
	check("writing Tx", tx)
}

// TestLabelAddedBesideGrowingList: one transaction grows label A's list
// past two doublings, adds label B on the same vertex — which publishes a
// copy of the vertex's label index — and grows A again, while a reader
// pinned before it scans A. The upgrade after the copy must land in the
// copy: after commit both labels hold every edge, and the reader only ever
// saw its epoch's prefix.
func TestLabelAddedBesideGrowingList(t *testing.T) {
	g, err := Open(Options{Workers: 4, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const v, labelA, labelB = VertexID(1), Label(0), Label(1)
	const prefix = 3
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < prefix; i++ {
			tx.InsertEdge(v, labelA, VertexID(100+i), []byte{byte(i)})
		}
	})
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := 0
			snap.ScanNeighbors(v, labelA, func(dst VertexID, props []byte) bool {
				if want := VertexID(100 + prefix - 1 - n); dst != want || len(props) != 1 || props[0] != byte(prefix-1-n) {
					select {
					case errs <- "pinned reader saw an edge past its epoch or out of order":
					default:
					}
				}
				n++
				return true
			})
			if n != prefix {
				select {
				case errs <- "pinned reader saw a prefix of the wrong length":
				default:
				}
			}
		}
	}()

	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	grow := func(from, to int, doublings int) {
		t.Helper()
		before := g.stats.Upgrades.Load()
		for i := from; i < to; i++ {
			if err := tx.InsertEdge(v, labelA, VertexID(100+i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if up := g.stats.Upgrades.Load() - before; up < int64(doublings) {
			t.Fatalf("list A upgraded %d times, want at least %d", up, doublings)
		}
	}
	grow(prefix, 64, 2)
	const nb = 5
	for i := 0; i < nb; i++ {
		if err := tx.InsertEdge(v, labelB, VertexID(200+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	grow(64, 256, 1)
	time.Sleep(time.Millisecond) // let the reader scan the copied index
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}

	after, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Release()
	if d := after.Degree(v, labelA); d != 256 {
		t.Fatalf("label A holds %d edges after commit, want 256", d)
	}
	if d := after.Degree(v, labelB); d != nb {
		t.Fatalf("label B holds %d edges after commit, want %d", d, nb)
	}
	for i := 0; i < 256; i++ {
		if p, err := after.GetEdge(v, labelA, VertexID(100+i)); err != nil || len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("edge %d of label A: %v %v", i, p, err)
		}
	}
}

// BenchmarkWholeGraphScan loads the frozen benchmark's traversal graph
// shape — 2^16 vertices, 16 edges each on average (uniform 1..31), each
// source's edges inserted contiguously, 32 B of properties — and reports
// the cost of one full ScanNeighbors pass per edge and of one telFor seek
// (the label index lookup and TEL view) per vertex.
func BenchmarkWholeGraphScan(b *testing.B) {
	const n = 1 << 16
	g, err := Open(Options{Workers: 2, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	rng := rand.New(rand.NewSource(1))
	props := make([]byte, 32)
	for v := 0; v < n; {
		tx, err := g.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 2048 && v < n; v++ {
			for d := 1 + rng.Intn(31); d > 0; d-- {
				if err := tx.InsertEdge(VertexID(v), 0, VertexID(rng.Intn(n)), props); err != nil {
					b.Fatal(err)
				}
				k++
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	g.CompactNow()
	snap, err := g.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Release()
	var edges, sink int64
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		for v := VertexID(0); v < n; v++ {
			snap.ScanNeighbors(v, 0, func(dst VertexID, p []byte) bool {
				sink += int64(dst) + int64(len(p))
				edges++
				return true
			})
		}
	}
	scan := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < b.N; i++ {
		for v := VertexID(0); v < n; v++ {
			if t, ok := g.telFor(v, 0); ok {
				sink += int64(t.Len())
			}
		}
	}
	seek := time.Since(t0)
	b.StopTimer()
	b.ReportMetric(float64(scan.Nanoseconds())/float64(edges), "ns/edge")
	b.ReportMetric(float64(seek.Nanoseconds())/float64(b.N*n), "ns/seek")
	if sink == 0 {
		b.Fatal("scanned nothing")
	}
}
