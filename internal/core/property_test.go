package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
)

// modelKey identifies an edge in the reference model.
type modelKey struct {
	src   VertexID
	label Label
	dst   VertexID
}

// TestRandomOpsMatchModel replays a random sequence of serialized
// transactions against both LiveGraph and a plain map model, then checks
// the full visible state matches: every edge, its properties, every degree
// and every vertex payload.
func TestRandomOpsMatchModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := Open(Options{Workers: 8})
		if err != nil {
			return false
		}
		defer g.Close()

		edges := map[modelKey][]byte{}
		vertices := map[VertexID][]byte{}
		const nv = 12
		mustCommit(t, g, func(tx *Tx) {
			for i := 0; i < nv; i++ {
				id, _ := tx.AddVertex([]byte{byte(i)})
				vertices[id] = []byte{byte(i)}
			}
		})

		for op := 0; op < 400; op++ {
			tx, err := g.Begin()
			if err != nil {
				return false
			}
			// 1-4 operations per transaction.
			abort := rng.Intn(10) == 0
			var pe []pendingEdge
			var pv []pendingVertex
			nops := 1 + rng.Intn(4)
			for i := 0; i < nops; i++ {
				src := VertexID(rng.Intn(nv))
				dst := VertexID(rng.Intn(nv))
				label := Label(rng.Intn(2))
				k := modelKey{src, label, dst}
				switch rng.Intn(5) {
				case 0, 1: // upsert
					v := []byte{byte(op), byte(i)}
					if err := tx.AddEdge(src, label, dst, v); err != nil {
						t.Logf("seed %d: AddEdge: %v", seed, err)
						return false
					}
					pe = append(pe, pendingEdge{k: k, v: v})
				case 2: // delete
					err := tx.DeleteEdge(src, label, dst)
					if err != nil && !errors.Is(err, ErrNotFound) {
						t.Logf("seed %d: DeleteEdge: %v", seed, err)
						return false
					}
					if err == nil {
						pe = append(pe, pendingEdge{k: k, del: true})
					}
				case 3: // vertex update
					v := []byte{0xAA, byte(op)}
					if err := tx.PutVertex(src, v); err != nil {
						t.Logf("seed %d: PutVertex: %v", seed, err)
						return false
					}
					pv = append(pv, pendingVertex{v: src, data: v})
				case 4: // read inside the tx (exercise own-write visibility)
					want, inModel := modelEdgeView(edges, pe, k)
					got, err := tx.GetEdge(src, label, dst)
					if inModel != (err == nil) {
						t.Logf("seed %d op %d: GetEdge presence: model %v, got err %v", seed, op, inModel, err)
						return false
					}
					if inModel && string(got) != string(want) {
						t.Logf("seed %d op %d: GetEdge value %q want %q", seed, op, got, want)
						return false
					}
				}
			}
			if abort {
				tx.Abort()
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Logf("seed %d: Commit: %v", seed, err)
				return false
			}
			for _, p := range pe {
				if p.del {
					delete(edges, p.k)
				} else {
					edges[p.k] = p.v
				}
			}
			for _, p := range pv {
				vertices[p.v] = p.data
			}
		}

		// Final state comparison.
		r, _ := g.BeginRead()
		defer r.Commit()
		for k, want := range edges {
			got, err := r.GetEdge(k.src, k.label, k.dst)
			if err != nil || string(got) != string(want) {
				t.Logf("seed %d: final GetEdge(%v) = %q,%v want %q", seed, k, got, err, want)
				return false
			}
		}
		for src := VertexID(0); src < nv; src++ {
			for label := Label(0); label < 2; label++ {
				want := 0
				for k := range edges {
					if k.src == src && k.label == label {
						want++
					}
				}
				if got := r.Degree(src, label); got != want {
					t.Logf("seed %d: Degree(%d,%d) = %d want %d", seed, src, label, got, want)
					return false
				}
				// Scan must yield exactly the model's edge set, no dupes.
				seen := map[VertexID]bool{}
				it := r.Neighbors(src, label)
				for it.Next() {
					if seen[it.Dst()] {
						t.Logf("seed %d: duplicate dst %d in scan", seed, it.Dst())
						return false
					}
					seen[it.Dst()] = true
					if _, ok := edges[modelKey{src, label, it.Dst()}]; !ok {
						t.Logf("seed %d: phantom edge %d->%d", seed, src, it.Dst())
						return false
					}
				}
			}
		}
		for v, want := range vertices {
			got, err := r.GetVertex(v)
			if err != nil || string(got) != string(want) {
				t.Logf("seed %d: GetVertex(%d) = %q,%v", seed, v, got, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

type pendingEdge struct {
	k   modelKey
	v   []byte
	del bool
}

type pendingVertex struct {
	v    VertexID
	data []byte
}

// modelEdgeView resolves the value of k as the in-flight transaction should
// see it: pending writes shadow the committed model.
func modelEdgeView(committed map[modelKey][]byte, pending []pendingEdge, k modelKey) ([]byte, bool) {
	for i := len(pending) - 1; i >= 0; i-- {
		if pending[i].k == k {
			if pending[i].del {
				return nil, false
			}
			return pending[i].v, true
		}
	}
	v, ok := committed[k]
	return v, ok
}

// TestRandomOpsMatchModelWithCompaction is the same property with
// aggressive compaction interleaved, verifying compaction never changes
// visible state.
func TestRandomOpsMatchModelWithCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, err := Open(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	edges := map[modelKey][]byte{}
	const nv = 8
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < nv; i++ {
			tx.AddVertex(nil)
		}
	})
	for op := 0; op < 600; op++ {
		src := VertexID(rng.Intn(nv))
		dst := VertexID(rng.Intn(nv))
		k := modelKey{src, 0, dst}
		if rng.Intn(3) == 0 {
			mustCommit(t, g, func(tx *Tx) {
				if err := tx.DeleteEdge(src, 0, dst); err == nil {
					delete(edges, k)
				}
			})
		} else {
			v := []byte(fmt.Sprintf("%d", op))
			mustCommit(t, g, func(tx *Tx) {
				if err := tx.AddEdge(src, 0, dst, v); err != nil {
					t.Fatal(err)
				}
			})
			edges[k] = v
		}
		if op%50 == 0 {
			g.CompactNow()
		}
	}
	g.CompactNow()
	r, _ := g.BeginRead()
	defer r.Commit()
	for k, want := range edges {
		got, err := r.GetEdge(k.src, k.label, k.dst)
		if err != nil || string(got) != string(want) {
			t.Fatalf("GetEdge(%v) = %q,%v want %q", k, got, err, want)
		}
	}
	total := 0
	for src := VertexID(0); src < nv; src++ {
		total += r.Degree(src, 0)
	}
	if total != len(edges) {
		t.Fatalf("total degree %d, model %d", total, len(edges))
	}
}

// TestSnapshotStabilityUnderChurn: a snapshot's entire view must stay
// byte-identical no matter how many transactions commit and compactions
// run after it was taken.
func TestSnapshotStabilityUnderChurn(t *testing.T) {
	g, err := Open(Options{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const nv = 10
	rng := rand.New(rand.NewSource(5))
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < nv; i++ {
			tx.AddVertex(nil)
		}
		for i := 0; i < 100; i++ {
			tx.AddEdge(VertexID(rng.Intn(nv)), 0, VertexID(rng.Intn(nv)), []byte{byte(i)})
		}
	})
	snap, _ := g.Snapshot()
	defer snap.Release()

	// Record the full view.
	type edge struct {
		dst VertexID
		p   string
	}
	before := map[VertexID][]edge{}
	for v := VertexID(0); v < nv; v++ {
		snap.ScanNeighbors(v, 0, func(dst VertexID, props []byte) bool {
			before[v] = append(before[v], edge{dst, string(props)})
			return true
		})
	}

	// Churn hard.
	for i := 0; i < 500; i++ {
		mustCommit(t, g, func(tx *Tx) {
			tx.AddEdge(VertexID(rng.Intn(nv)), 0, VertexID(rng.Intn(nv)), []byte{0xEE})
		})
		if i%100 == 0 {
			g.CompactNow()
		}
	}

	// The snapshot view must be identical.
	for v := VertexID(0); v < nv; v++ {
		var after []edge
		snap.ScanNeighbors(v, 0, func(dst VertexID, props []byte) bool {
			after = append(after, edge{dst, string(props)})
			return true
		})
		if len(after) != len(before[v]) {
			t.Fatalf("vertex %d: snapshot changed size %d -> %d", v, len(before[v]), len(after))
		}
		for i := range after {
			if after[i] != before[v][i] {
				t.Fatalf("vertex %d edge %d: %+v -> %+v", v, i, before[v][i], after[i])
			}
		}
	}
}

// modelReader is the read surface the settled-path model test compares:
// what a snapshot and a transaction share.
type modelReader interface {
	Degree(VertexID, Label) int
	Neighbors(VertexID, Label) *EdgeIter
}

// checkModel compares every (src, label) list of r against want: Degree,
// the Neighbors scan and, on a snapshot, ScanNeighbors, which must all
// yield exactly the model's edges with their properties.
func checkModel(r modelReader, want map[modelKey][]byte, nv VertexID, labels Label) error {
	for src := VertexID(0); src < nv; src++ {
		for label := Label(0); label < labels; label++ {
			exp := map[VertexID]string{}
			for k, v := range want {
				if k.src == src && k.label == label {
					exp[k.dst] = string(v)
				}
			}
			if d := r.Degree(src, label); d != len(exp) {
				return fmt.Errorf("Degree(%d,%d) = %d, want %d", src, label, d, len(exp))
			}
			got := map[VertexID]string{}
			for it := r.Neighbors(src, label); it.Next(); {
				if _, dup := got[it.Dst()]; dup {
					return fmt.Errorf("Neighbors(%d,%d) yields %d twice", src, label, it.Dst())
				}
				got[it.Dst()] = string(it.Props())
			}
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				return fmt.Errorf("Neighbors(%d,%d) = %v, want %v", src, label, got, exp)
			}
			s, ok := r.(*Snapshot)
			if !ok {
				continue
			}
			got = map[VertexID]string{}
			s.ScanNeighbors(src, label, func(dst VertexID, props []byte) bool {
				got[dst] = string(props)
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				return fmt.Errorf("ScanNeighbors(%d,%d) = %v, want %v", src, label, got, exp)
			}
		}
	}
	return nil
}

// TestSettledPathMatchesModel drives random upserts, deletes and inserts
// through serialized transactions, compacting as it goes while a snapshot
// stays pinned across many compaction passes, and after every transaction
// compares Degree, Neighbors and ScanNeighbors with the model at the pinned
// epoch, at the current epoch and at a past epoch inside HistoryRetention
// (SnapshotAt). Inside each transaction it reads both a list the
// transaction has written — its own deletes and upserts must show — and
// lists it has not. Compaction keeps entries invalidated above the pinned
// floor, and the current epoch is past their invalidation: the reads a
// header check that ignored those entries would get wrong.
func TestSettledPathMatchesModel(t *testing.T) {
	const (
		nv        = 6
		labels    = 2
		retention = 6
	)
	g, err := Open(Options{Workers: 8, CompactEvery: -1, HistoryRetention: retention})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < nv; i++ {
			tx.AddVertex(nil)
		}
	})
	edges := map[modelKey][]byte{}
	// The model per commit epoch: each state is a fresh map, never written
	// once stored.
	hist := map[int64]map[modelKey][]byte{g.ReadEpoch(): edges}
	at := func(e int64) map[modelKey][]byte {
		for ; e >= 0; e-- {
			if m, ok := hist[e]; ok {
				return m
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(36))
	pinned, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { pinned.Release() }()
	keptHistory := 0 // compacted lists that kept an invalidated entry
	for op := 0; op < 300; op++ {
		tx, err := g.Begin()
		if err != nil {
			t.Fatal(err)
		}
		src, label := VertexID(rng.Intn(nv)), Label(rng.Intn(labels))
		pending := maps.Clone(edges)
		for i := 1 + rng.Intn(3); i > 0; i-- {
			dst := VertexID(rng.Intn(nv))
			k := modelKey{src, label, dst}
			switch rng.Intn(3) {
			case 0, 1:
				v := []byte(fmt.Sprintf("%d.%d", op, i))
				if err := tx.AddEdge(src, label, dst, v); err != nil {
					t.Fatal(err)
				}
				pending[k] = v
			case 2:
				err := tx.DeleteEdge(src, label, dst)
				if _, ok := pending[k]; ok != (err == nil) {
					t.Fatalf("op %d: DeleteEdge(%v) = %v, model has it: %v", op, k, err, ok)
				}
				delete(pending, k)
			}
		}
		// The list it wrote shows its own writes; the others are the
		// committed model at its read epoch.
		if err := checkModel(tx, pending, nv, labels); err != nil {
			t.Fatalf("op %d: inside the tx: %v", op, err)
		}
		if rng.Intn(8) == 0 {
			tx.Abort()
		} else {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			edges = pending
			hist[tx.CommitEpoch()] = edges
		}
		if op%5 == 4 {
			g.CompactNow()
			for v := VertexID(0); v < nv; v++ {
				for l := Label(0); l < labels; l++ {
					if tl, ok := g.telFor(v, l); ok && tl.DeadBytes() > 0 {
						keptHistory++
					}
				}
			}
		}
		if op%60 == 59 {
			pinned.Release()
			if pinned, err = g.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		cur, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		past := cur.ReadEpoch() - rng.Int63n(retention+1)
		old, err := g.SnapshotAt(max(past, 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Snapshot{pinned, cur, old} {
			if err := checkModel(r, at(r.ReadEpoch()), nv, labels); err != nil {
				t.Fatalf("op %d: snapshot at %d (current %d): %v", op, r.ReadEpoch(), cur.ReadEpoch(), err)
			}
		}
		old.Release()
		cur.Release()
	}
	if keptHistory == 0 {
		t.Fatal("compaction never kept an invalidated entry: the test does not reach its case")
	}
}
