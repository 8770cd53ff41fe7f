package baseline_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"livegraph/internal/baseline"
	"livegraph/internal/baseline/adjlist"
	"livegraph/internal/baseline/btree"
	"livegraph/internal/baseline/lsmt"
	"livegraph/internal/core"
)

// stores returns a fresh instance of every mutable baseline store, plus
// the livegraph engine itself (durable) so the commit pipeline answers
// the same correctness contract as the comparison structures.
func stores(t *testing.T) []baseline.EdgeStore {
	out := []baseline.EdgeStore{
		btree.New(),
		lsmt.NewWithMemLimit(64), // small memtable to exercise flush/compact
		adjlist.New(),
	}
	g, err := core.Open(core.Options{Dir: t.TempDir(), Workers: 32, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return append(out, &engineStore{g: g, name: "LiveGraph"})
}

// engineStore adapts a core.Graph to the baseline EdgeStore interface.
// Every operation is one transaction; transient aborts are retried. The
// live-edge count the interface requires is tracked transactionally (the
// existence probe runs inside the same transaction as the write).
type engineStore struct {
	g     *core.Graph
	name  string
	count atomic.Int64
}

func (s *engineStore) Name() string { return s.name }

func (s *engineStore) update(fn func(tx *core.Tx) error) {
	for {
		tx, err := s.g.Begin()
		if err != nil {
			return
		}
		if err := fn(tx); err != nil {
			if core.IsRetryable(err) {
				continue
			}
			tx.Abort()
			return
		}
		if err := tx.Commit(); err == nil || !core.IsRetryable(err) {
			return
		}
	}
}

func (s *engineStore) AddEdge(src, dst int64, props []byte) {
	existed := false
	s.update(func(tx *core.Tx) error {
		_, err := tx.GetEdge(core.VertexID(src), 0, core.VertexID(dst))
		existed = err == nil
		return tx.AddEdge(core.VertexID(src), 0, core.VertexID(dst), props)
	})
	if !existed {
		s.count.Add(1)
	}
}

func (s *engineStore) DeleteEdge(src, dst int64) bool {
	found := false
	s.update(func(tx *core.Tx) error {
		err := tx.DeleteEdge(core.VertexID(src), 0, core.VertexID(dst))
		if err == core.ErrNotFound {
			found = false
			return nil
		}
		found = err == nil
		return err
	})
	if found {
		s.count.Add(-1)
	}
	return found
}

func (s *engineStore) GetEdge(src, dst int64) ([]byte, bool) {
	tx, err := s.g.BeginRead()
	if err != nil {
		return nil, false
	}
	defer tx.Commit()
	p, err := tx.GetEdge(core.VertexID(src), 0, core.VertexID(dst))
	if err != nil {
		return nil, false
	}
	return append([]byte(nil), p...), true
}

func (s *engineStore) ScanNeighbors(src int64, fn func(dst int64, props []byte) bool) {
	tx, err := s.g.BeginRead()
	if err != nil {
		return
	}
	defer tx.Commit()
	it := tx.Neighbors(core.VertexID(src), 0)
	for it.Next() {
		if !fn(int64(it.Dst()), it.Props()) {
			return
		}
	}
}

func (s *engineStore) Degree(src int64) int {
	tx, err := s.g.BeginRead()
	if err != nil {
		return 0
	}
	defer tx.Commit()
	return tx.Degree(core.VertexID(src), 0)
}

func (s *engineStore) NumEdges() int64 { return s.count.Load() }

func TestConformanceBasicCRUD(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			s.AddEdge(1, 2, []byte("a"))
			s.AddEdge(1, 3, []byte("b"))
			s.AddEdge(2, 1, []byte("c"))
			if n := s.NumEdges(); n != 3 {
				t.Fatalf("NumEdges = %d", n)
			}
			if v, ok := s.GetEdge(1, 2); !ok || string(v) != "a" {
				t.Fatalf("GetEdge(1,2) = %q %v", v, ok)
			}
			if _, ok := s.GetEdge(1, 99); ok {
				t.Fatal("phantom edge")
			}
			// Upsert does not duplicate.
			s.AddEdge(1, 2, []byte("a2"))
			if n := s.NumEdges(); n != 3 {
				t.Fatalf("NumEdges after upsert = %d", n)
			}
			if v, _ := s.GetEdge(1, 2); string(v) != "a2" {
				t.Fatalf("upsert value %q", v)
			}
			if d := s.Degree(1); d != 2 {
				t.Fatalf("Degree(1) = %d", d)
			}
			if !s.DeleteEdge(1, 2) {
				t.Fatal("delete existing failed")
			}
			if s.DeleteEdge(1, 2) {
				t.Fatal("delete missing succeeded")
			}
			if _, ok := s.GetEdge(1, 2); ok {
				t.Fatal("deleted edge still visible")
			}
			if d := s.Degree(1); d != 1 {
				t.Fatalf("Degree(1) after delete = %d", d)
			}
		})
	}
}

func TestConformanceScanCompleteAndDeduplicated(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			const n = 500
			for i := 0; i < n; i++ {
				s.AddEdge(7, int64(i), []byte{byte(i)})
			}
			// Overwrite half of them.
			for i := 0; i < n; i += 2 {
				s.AddEdge(7, int64(i), []byte{0xFF})
			}
			seen := map[int64]byte{}
			s.ScanNeighbors(7, func(dst int64, props []byte) bool {
				if _, dup := seen[dst]; dup {
					t.Fatalf("duplicate dst %d in scan", dst)
				}
				seen[dst] = props[0]
				return true
			})
			if len(seen) != n {
				t.Fatalf("scan saw %d edges, want %d", len(seen), n)
			}
			for i := 0; i < n; i++ {
				want := byte(i)
				if i%2 == 0 {
					want = 0xFF
				}
				if seen[int64(i)] != want {
					t.Fatalf("dst %d = %x, want %x", i, seen[int64(i)], want)
				}
			}
		})
	}
}

func TestConformanceScanEarlyStop(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			for i := 0; i < 100; i++ {
				s.AddEdge(1, int64(i), nil)
			}
			count := 0
			s.ScanNeighbors(1, func(int64, []byte) bool {
				count++
				return count < 5
			})
			if count != 5 {
				t.Fatalf("early stop scanned %d", count)
			}
		})
	}
}

func TestConformanceScanIsolatedPerVertex(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			s.AddEdge(10, 1, nil)
			s.AddEdge(11, 2, nil)
			s.AddEdge(9, 3, nil)
			var dsts []int64
			s.ScanNeighbors(10, func(dst int64, _ []byte) bool {
				dsts = append(dsts, dst)
				return true
			})
			if len(dsts) != 1 || dsts[0] != 1 {
				t.Fatalf("scan leaked across vertices: %v", dsts)
			}
			// A vertex with no edges scans nothing.
			s.ScanNeighbors(500, func(int64, []byte) bool {
				t.Fatal("edge for empty vertex")
				return false
			})
		})
	}
}

func TestConformanceRandomizedAgainstModel(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			model := map[[2]int64][]byte{}
			for op := 0; op < 5000; op++ {
				src := int64(rng.Intn(50))
				dst := int64(rng.Intn(50))
				switch rng.Intn(3) {
				case 0, 1:
					v := []byte(fmt.Sprintf("%d", op))
					s.AddEdge(src, dst, v)
					model[[2]int64{src, dst}] = v
				case 2:
					got := s.DeleteEdge(src, dst)
					_, want := model[[2]int64{src, dst}]
					if got != want {
						t.Fatalf("op %d: DeleteEdge(%d,%d) = %v, want %v", op, src, dst, got, want)
					}
					delete(model, [2]int64{src, dst})
				}
			}
			if int(s.NumEdges()) != len(model) {
				t.Fatalf("NumEdges = %d, model %d", s.NumEdges(), len(model))
			}
			for k, want := range model {
				got, ok := s.GetEdge(k[0], k[1])
				if !ok || string(got) != string(want) {
					t.Fatalf("GetEdge(%d,%d) = %q %v, want %q", k[0], k[1], got, ok, want)
				}
			}
			// Per-vertex scans agree with the model.
			for src := int64(0); src < 50; src++ {
				want := 0
				for k := range model {
					if k[0] == src {
						want++
					}
				}
				if d := s.Degree(src); d != want {
					t.Fatalf("Degree(%d) = %d, want %d", src, d, want)
				}
			}
		})
	}
}

func TestConformanceConcurrentReadersAndWriter(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			for i := 0; i < 200; i++ {
				s.AddEdge(1, int64(i), nil)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if d := s.Degree(1); d < 200 {
							t.Errorf("reader saw %d < 200 edges", d)
							return
						}
					}
				}()
			}
			for i := 200; i < 600; i++ {
				s.AddEdge(1, int64(i), nil)
			}
			close(stop)
			wg.Wait()
		})
	}
}

func TestNodeTable(t *testing.T) {
	var nt baseline.NodeTable
	id := nt.AddNode([]byte("x"))
	if id != 0 {
		t.Fatalf("first id %d", id)
	}
	if v, ok := nt.GetNode(0); !ok || string(v) != "x" {
		t.Fatalf("GetNode %q %v", v, ok)
	}
	if !nt.UpdateNode(0, []byte("y")) {
		t.Fatal("update failed")
	}
	if v, _ := nt.GetNode(0); string(v) != "y" {
		t.Fatalf("after update %q", v)
	}
	if _, ok := nt.GetNode(5); ok {
		t.Fatal("phantom node")
	}
	if nt.UpdateNode(9, nil) {
		t.Fatal("update of missing node succeeded")
	}
	if nt.Count() != 1 {
		t.Fatalf("count %d", nt.Count())
	}
}
