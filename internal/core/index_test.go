package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"livegraph/internal/wal"
)

// TestHugeVertexIDStaysSparse: a write that gives records to a high vertex
// ID allocates the index chunk it lands in and a directory entry per 4 096
// IDs below it — not every chunk below it — and an ID at MaxVertexID is
// refused before it reaches an index.
func TestHugeVertexIDStaysSparse(t *testing.T) {
	g := openMem(t)
	mustCommit(t, g, func(tx *Tx) {
		tx.AddVertex(nil)
		tx.InsertEdge(0, 0, 1, nil)
	})
	for name, write := range map[string]func(tx *Tx) error{
		"InsertEdge from 1<<24": func(tx *Tx) error { return tx.InsertEdge(1<<24, 0, 1<<40, nil) },
		"PutVertex 1<<24+1<<23": func(tx *Tx) error { return tx.PutVertex(1<<24+1<<23, []byte("x")) },
	} {
		before := heapInuse()
		mustCommit(t, g, func(tx *Tx) {
			if err := write(tx); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if grew := heapInuse() - before; grew > 1<<20 {
			t.Errorf("%s grew the heap by %.1f MiB", name, grew/(1<<20))
		}
	}
	s, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if !s.HasEdge(1<<24, 0, 1<<40) || s.HasEdge(1<<23, 0, 1<<40) {
		t.Fatal("the sparse edge index lost or invented an edge")
	}
	if data, err := s.GetVertex(1<<24 + 1<<23); err != nil || string(data) != "x" {
		t.Fatalf("GetVertex: %q %v", data, err)
	}
	if _, err := s.GetVertex(1 << 23); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetVertex in an unallocated chunk: %v", err)
	}
	// The reverse index walks only the allocated chunks, and its sources
	// fit 32 bits.
	if got := scanIn(t, s, 0, 1<<40); len(got) != 1 || got[0] != 1<<24 {
		t.Fatalf("ScanIn(1<<40) = %v, want [1<<24]", got)
	}

	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	for _, err := range []error{
		tx.InsertEdge(MaxVertexID, 0, 1, nil), tx.AddEdge(1<<40, 0, 1, nil), tx.DeleteEdge(MaxVertexID, 0, 1),
		tx.PutVertex(MaxVertexID, nil), tx.DeleteVertex(1 << 40),
	} {
		if !errors.Is(err, ErrOutOfRange) {
			t.Errorf("a write at or past MaxVertexID: %v, want ErrOutOfRange", err)
		}
	}
	if err := tx.InsertEdge(MaxVertexID-1, 0, MaxVertexID, nil); err != nil {
		t.Fatalf("the highest source: %v", err)
	}
}

// TestFrontierAtMaxVertexIDStaysOpenable: a write at MaxVertexID-1 takes
// the vertex frontier to the bound, after which AddVertex is refused — on
// the primary, on a follower promoted from its log, after it reopens from
// that log and after it reopens from a full checkpoint — so no committed
// record is one recovery or apply refuses. The checkpoint's dump skips the
// unallocated chunks below the bound instead of visiting 2^32 IDs.
func TestFrontierAtMaxVertexIDStaysOpenable(t *testing.T) {
	top := VertexID(MaxVertexID - 1)
	for name, c := range map[string]struct {
		write func(tx *Tx) error
		read  func(s *Snapshot) error
	}{
		"PutVertex": {
			func(tx *Tx) error { return tx.PutVertex(top, []byte("top")) },
			func(s *Snapshot) error { _, err := s.GetVertex(top); return err },
		},
		"InsertEdge": {
			func(tx *Tx) error { return tx.InsertEdge(top, 0, 1<<40, nil) },
			func(s *Snapshot) error { _, err := s.GetEdge(top, 0, 1<<40); return err },
		},
	} {
		t.Run(name, func(t *testing.T) {
			refusesAdd := func(g *Graph, who string) {
				t.Helper()
				if got := g.NumVertices(); got != MaxVertexID {
					t.Errorf("%s: frontier %d, want MaxVertexID", who, got)
				}
				// Commit whatever AddVertex did: an ID past the bound
				// would reach the log and fail the reopen below.
				mustCommit(t, g, func(tx *Tx) {
					if id, err := tx.AddVertex(nil); !errors.Is(err, ErrOutOfRange) {
						t.Errorf("%s: AddVertex = %d, %v; want ErrOutOfRange", who, id, err)
					}
				})
				if got := g.NumVertices(); got != MaxVertexID {
					t.Errorf("%s: a refused AddVertex moved the frontier to %d", who, got)
				}
			}
			dir := t.TempDir()
			g := openDurable(t, dir)
			mustCommit(t, g, func(tx *Tx) {
				if _, err := tx.AddVertex([]byte("low")); err != nil {
					t.Fatal(err)
				}
				if err := c.write(tx); err != nil {
					t.Fatal(err)
				}
			})
			refusesAdd(g, "primary")

			follower := openFollower(t, Options{})
			tl := wal.Tail(dir, 0, g.DurableEpoch)
			catchUp(t, tl, follower)
			tl.Close()
			follower.SetFollower(false)
			refusesAdd(follower, "promoted follower")

			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			g = openDurable(t, dir)
			refusesAdd(g, "reopened primary")
			if err := g.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			g = openDurable(t, dir)
			defer g.Close()
			refusesAdd(g, "primary reopened from its checkpoint")
			s, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			if data, err := s.GetVertex(0); err != nil || string(data) != "low" {
				t.Errorf("vertex 0 after reopen: %q %v", data, err)
			}
			if err := c.read(s); err != nil {
				t.Errorf("the write at MaxVertexID-1 after reopen: %v", err)
			}
		})
	}
}

// TestDecodeOpsNamesTheVertexBound: a record from a version without
// MaxVertexID, naming a source past it, is refused with an error that names
// the bound, so it reads as an upgrade hazard and not as damage.
func TestDecodeOpsNamesTheVertexBound(t *testing.T) {
	for _, rec := range [][]byte{
		appendEdgeOp(nil, opInsertEdge, 1<<40, 0, 1, nil),
		appendVertexOp(nil, opAddVertex, MaxVertexID, nil),
	} {
		_, err := decodeOps(nil, rec)
		if err == nil || !strings.Contains(err.Error(), "MaxVertexID") {
			t.Errorf("record %x: %v, want an error naming MaxVertexID", rec, err)
		}
	}
	if _, err := decodeOps(nil, appendVertexOp(nil, opPutVertex, -1, nil)); err == nil || strings.Contains(err.Error(), "MaxVertexID") {
		t.Errorf("negative vertex: %v, want the plain range error", err)
	}
}

// TestChunkedIndexSparseConcurrent: writers fill chunks out of order —
// holes below the directory's end and chunks past it — while readers Get
// and walk the index. A reader sees each slot nil or with the value set,
// and once every writer is done, Get and Each see every slot.
func TestChunkedIndexSparseConcurrent(t *testing.T) {
	var ix chunkedIndex[int64]
	const writers, per = 4, 64
	slot := func(w, i int) int64 { return int64((i*writers+w)*7919%512)<<chunkBits | int64(i) }
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ix.Each(func(i int64, p *int64) {
					if *p != i {
						t.Errorf("Each: slot %d holds %d", i, *p)
					}
				})
				for w := 0; w < writers; w++ {
					if p := ix.Get(slot(w, per-1)); p != nil && *p != slot(w, per-1) {
						t.Errorf("Get: slot %d holds %d", slot(w, per-1), *p)
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				v := slot(w, i)
				ix.Set(v, &v)
			}
		}(w)
	}
	ww.Wait()
	close(done)
	wg.Wait()
	n := 0
	ix.Each(func(int64, *int64) { n++ })
	if n != writers*per {
		t.Fatalf("Each saw %d slots, want %d", n, writers*per)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			if p := ix.Get(slot(w, i)); p == nil || *p != slot(w, i) {
				t.Fatalf("Get(%d) = %v", slot(w, i), p)
			}
		}
	}
	if ix.Cap() > 512<<chunkBits {
		t.Fatalf("Cap %d past the highest chunk set", ix.Cap())
	}
}
