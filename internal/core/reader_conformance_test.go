package core

// The Reader conformance suite: the same battery of read-semantics checks
// runs against every implementation of the unified v2 read surface, so
// *Tx and *Snapshot cannot drift apart. Any future Reader (a remote view,
// a cached view) should register here too.

import (
	"errors"
	"testing"
)

// readerFixture is the graph every conformance run reads:
//
//	v0 "alice" -(L0)-> v1 "bob"   props "ab"
//	v0 "alice" -(L0)-> v2 "carol" props "ac"
//	v0 "alice" -(L1)-> v2 "carol" props "x"
//	v1 "bob"   -(L0)-> v2 "carol" props "bc"
//	v3 "dave" (vertex deleted)
//	edge v1->v2 on L1 inserted then deleted
type readerFixture struct {
	g          *Graph
	a, b, c, d VertexID
}

func buildReaderFixture(t testing.TB) *readerFixture {
	return buildReaderFixtureOn(t, openMem(t))
}

// buildReaderFixtureOn commits the fixture into an arbitrary graph — the
// replication tests build it on a durable primary and ship it to a
// follower, whose Readers then run the same conformance battery.
func buildReaderFixtureOn(t testing.TB, g *Graph) *readerFixture {
	t.Helper()
	f := &readerFixture{g: g}
	mustCommit(t, f.g, func(tx *Tx) {
		f.a, _ = tx.AddVertex([]byte("alice"))
		f.b, _ = tx.AddVertex([]byte("bob"))
		f.c, _ = tx.AddVertex([]byte("carol"))
		f.d, _ = tx.AddVertex([]byte("dave"))
		tx.InsertEdge(f.a, 0, f.b, []byte("ab"))
		tx.InsertEdge(f.a, 0, f.c, []byte("ac"))
		tx.InsertEdge(f.a, 1, f.c, []byte("x"))
		tx.InsertEdge(f.b, 0, f.c, []byte("bc"))
		tx.InsertEdge(f.b, 1, f.c, []byte("temp"))
	})
	mustCommit(t, f.g, func(tx *Tx) {
		if err := tx.DeleteVertex(f.d); err != nil {
			t.Fatal(err)
		}
		if err := tx.DeleteEdge(f.b, 1, f.c); err != nil {
			t.Fatal(err)
		}
	})
	return f
}

// runReaderConformance exercises every Reader method against the fixture.
func runReaderConformance(t *testing.T, f *readerFixture, r Reader) {
	t.Helper()

	// ReadEpoch matches the graph's current epoch (the fixture is fully
	// committed before any reader opens).
	if got, want := r.ReadEpoch(), f.g.ReadEpoch(); got != want {
		t.Errorf("ReadEpoch = %d, want %d", got, want)
	}

	// GetVertex: present, deleted, never-allocated.
	if data, err := r.GetVertex(f.a); err != nil || string(data) != "alice" {
		t.Errorf("GetVertex(a) = %q, %v", data, err)
	}
	if _, err := r.GetVertex(f.d); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetVertex(deleted) err = %v, want ErrNotFound", err)
	}
	if _, err := r.GetVertex(f.d + 100); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetVertex(unallocated) err = %v, want ErrNotFound", err)
	}

	// GetEdge: present (per label), deleted, absent.
	if props, err := r.GetEdge(f.a, 0, f.b); err != nil || string(props) != "ab" {
		t.Errorf("GetEdge(a,0,b) = %q, %v", props, err)
	}
	if props, err := r.GetEdge(f.a, 1, f.c); err != nil || string(props) != "x" {
		t.Errorf("GetEdge(a,1,c) = %q, %v", props, err)
	}
	if _, err := r.GetEdge(f.b, 1, f.c); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetEdge(deleted edge) err = %v, want ErrNotFound", err)
	}
	if _, err := r.GetEdge(f.c, 0, f.a); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetEdge(absent) err = %v, want ErrNotFound", err)
	}

	// Neighbors: newest-first order, per-label separation, empty lists.
	var dsts []VertexID
	var props []string
	it := r.Neighbors(f.a, 0)
	for it.Next() {
		dsts = append(dsts, it.Dst())
		props = append(props, string(it.Props()))
	}
	if len(dsts) != 2 || dsts[0] != f.c || dsts[1] != f.b {
		t.Errorf("Neighbors(a,0) = %v, want [%d %d] (newest first)", dsts, f.c, f.b)
	}
	if len(props) != 2 || props[0] != "ac" || props[1] != "ab" {
		t.Errorf("Neighbors(a,0) props = %v", props)
	}
	if it := r.Neighbors(f.c, 0); it.Next() {
		t.Error("Neighbors(c,0) should be empty")
	}
	if it := r.Neighbors(f.b, 1); it.Next() {
		t.Error("Neighbors(b,1) should not see the deleted edge")
	}
	if it := r.Neighbors(f.d+100, 0); it.Next() {
		t.Error("Neighbors(unallocated) should be empty")
	}

	// Degree agrees with a full scan.
	for _, tc := range []struct {
		v     VertexID
		label Label
		want  int
	}{{f.a, 0, 2}, {f.a, 1, 1}, {f.b, 0, 1}, {f.b, 1, 0}, {f.c, 0, 0}} {
		if got := r.Degree(tc.v, tc.label); got != tc.want {
			t.Errorf("Degree(%d,%d) = %d, want %d", tc.v, tc.label, got, tc.want)
		}
	}
}

func TestReaderConformanceTx(t *testing.T) {
	f := buildReaderFixture(t)
	tx, err := f.g.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	runReaderConformance(t, f, tx)
}

func TestReaderConformanceWriteTx(t *testing.T) {
	// A write transaction that has not touched the fixture's lists must
	// read exactly like a read-only one.
	f := buildReaderFixture(t)
	tx, err := f.g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	runReaderConformance(t, f, tx)
}

func TestReaderConformanceSnapshot(t *testing.T) {
	f := buildReaderFixture(t)
	snap, err := f.g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	runReaderConformance(t, f, snap)
}

func TestReaderConformanceSnapshotAt(t *testing.T) {
	f := buildReaderFixture(t)
	snap, err := f.g.SnapshotAt(f.g.ReadEpoch())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	runReaderConformance(t, f, snap)
}

// TestReaderAgreementUnderWrites pins a Tx view and a Snapshot at the same
// epoch, commits more writes, and checks the two Readers still agree with
// each other (and still see the old state).
func TestReaderAgreementUnderWrites(t *testing.T) {
	f := buildReaderFixture(t)
	tx, err := f.g.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	snap, err := f.g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	mustCommit(t, f.g, func(w *Tx) {
		w.InsertEdge(f.a, 0, f.d, []byte("new"))
		w.PutVertex(f.a, []byte("alice2"))
	})

	for name, r := range map[string]Reader{"tx": tx, "snapshot": snap} {
		if got := r.Degree(f.a, 0); got != 2 {
			t.Errorf("%s: Degree(a,0) after foreign commit = %d, want 2", name, got)
		}
		if data, _ := r.GetVertex(f.a); string(data) != "alice" {
			t.Errorf("%s: GetVertex(a) = %q, want pre-commit version", name, data)
		}
		if _, err := r.GetEdge(f.a, 0, f.d); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: sees edge committed after its epoch", name)
		}
	}
}

// TestReaderConformanceAggressiveMaint builds the fixture on a graph
// whose background maintenance is kicked constantly, layers churn on top
// so passes actually compact, and then runs the full battery against both
// Reader implementations: maintenance must be invisible to the read
// surface.
func TestReaderConformanceAggressiveMaint(t *testing.T) {
	g := openKicked(t, Options{})
	f := buildReaderFixtureOn(t, g)
	// Churn on vertices outside the fixture so compaction has garbage to
	// chew through while the battery runs.
	var hub VertexID
	mustCommit(t, g, func(tx *Tx) { hub, _ = tx.AddVertex(nil) })
	for i := 0; i < 100; i++ {
		mustCommit(t, g, func(tx *Tx) { tx.AddEdge(hub, 9, f.a, []byte{byte(i)}) })
	}
	waitMaint(t, g, "background pass", func() bool { return g.MaintStats().Passes.Load() >= 1 })

	tx, err := g.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	runReaderConformance(t, f, tx)

	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	runReaderConformance(t, f, snap)
}
