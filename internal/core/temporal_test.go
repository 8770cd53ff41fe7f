package core

import (
	"errors"
	"testing"
)

func openHistoric(t testing.TB, retention int64) *Graph {
	t.Helper()
	g, err := Open(Options{HistoryRetention: retention})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestSnapshotAtReadsHistory(t *testing.T) {
	g := openHistoric(t, 1000)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex([]byte("v1"))
		b, _ = tx.AddVertex(nil)
		tx.AddEdge(a, 0, b, []byte("e1"))
	})
	e1 := g.ReadEpoch()
	mustCommit(t, g, func(tx *Tx) {
		tx.PutVertex(a, []byte("v2"))
		tx.AddEdge(a, 0, b, []byte("e2"))
		tx.InsertEdge(a, 0, 77, nil)
	})
	e2 := g.ReadEpoch()
	mustCommit(t, g, func(tx *Tx) {
		tx.DeleteEdge(a, 0, b)
	})

	// As of e1: original vertex payload, single edge e1.
	s1, err := g.SnapshotAt(e1)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Release()
	if d, _ := s1.GetVertex(a); string(d) != "v1" {
		t.Fatalf("e1 vertex %q", d)
	}
	if d := s1.Degree(a, 0); d != 1 {
		t.Fatalf("e1 degree %d", d)
	}
	var props string
	s1.ScanNeighbors(a, 0, func(dst VertexID, p []byte) bool { props = string(p); return false })
	if props != "e1" {
		t.Fatalf("e1 edge props %q", props)
	}

	// As of e2: updated payload, upserted edge + the extra edge.
	s2, err := g.SnapshotAt(e2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Release()
	if d, _ := s2.GetVertex(a); string(d) != "v2" {
		t.Fatalf("e2 vertex %q", d)
	}
	if d := s2.Degree(a, 0); d != 2 {
		t.Fatalf("e2 degree %d", d)
	}
	if !s2.HasEdge(a, 0, b) {
		t.Fatal("e2 must still have edge a->b")
	}

	// Latest: edge deleted.
	s3, _ := g.Snapshot()
	defer s3.Release()
	if s3.HasEdge(a, 0, b) {
		t.Fatal("latest must not have edge a->b")
	}
}

func TestSnapshotAtSurvivesCompaction(t *testing.T) {
	g := openHistoric(t, 1000)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
		tx.AddEdge(a, 0, b, []byte{0})
	})
	e0 := g.ReadEpoch()
	for i := 1; i <= 50; i++ {
		mustCommit(t, g, func(tx *Tx) { tx.AddEdge(a, 0, b, []byte{byte(i)}) })
	}
	g.CompactNow()
	// Retention covers e0, so the original version must still be readable.
	s, err := g.SnapshotAt(e0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	var got byte = 0xFF
	s.ScanNeighbors(a, 0, func(dst VertexID, p []byte) bool { got = p[0]; return false })
	if got != 0 {
		t.Fatalf("historic version lost: got %d", got)
	}
}

func TestSnapshotAtOutsideWindow(t *testing.T) {
	g := openHistoric(t, 2)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) { a, _ = tx.AddVertex(nil) })
	e0 := g.ReadEpoch()
	for i := 0; i < 10; i++ {
		mustCommit(t, g, func(tx *Tx) { tx.InsertEdge(a, 0, VertexID(i), nil) })
	}
	if _, err := g.SnapshotAt(e0); !errors.Is(err, ErrHistoryGone) {
		t.Fatalf("epoch outside window: err=%v", err)
	}
	if _, err := g.SnapshotAt(g.ReadEpoch() + 5); err == nil {
		t.Fatal("future epoch accepted")
	}
	// Current epoch always works.
	s, err := g.SnapshotAt(g.ReadEpoch())
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
}

func TestZeroRetentionCompactsAggressively(t *testing.T) {
	g := openHistoric(t, 0)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
	})
	for i := 0; i < 20; i++ {
		mustCommit(t, g, func(tx *Tx) { tx.AddEdge(a, 0, b, []byte{byte(i)}) })
	}
	g.CompactNow()
	if n := listOf(g, a, 0).Len(); n != 1 {
		t.Fatalf("zero retention kept %d entries", n)
	}
}

func TestRetentionBoundsCompaction(t *testing.T) {
	// With retention R, versions invalidated within the last R epochs stay.
	g := openHistoric(t, 5)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
	})
	for i := 0; i < 20; i++ {
		mustCommit(t, g, func(tx *Tx) { tx.AddEdge(a, 0, b, []byte{byte(i)}) })
	}
	g.CompactNow()
	n := listOf(g, a, 0).Len()
	// The live version plus up to 5 epochs of history survive; everything
	// older is gone.
	if n < 2 || n > 7 {
		t.Fatalf("retention-5 kept %d entries, want within [2,7]", n)
	}
}

func TestHistoryRetentionUnderAggressiveMaintenance(t *testing.T) {
	// Background passes, kicked constantly, must respect
	// HistoryRetention exactly like CompactNow: versions invalidated
	// within the window stay readable via SnapshotAt even while passes
	// land mid-churn.
	g := openKicked(t, Options{HistoryRetention: 1000})
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex([]byte("v1"))
		b, _ = tx.AddVertex(nil)
		tx.AddEdge(a, 0, b, []byte{0})
	})
	e0 := g.ReadEpoch()
	for i := 1; i <= 200; i++ {
		mustCommit(t, g, func(tx *Tx) {
			tx.PutVertex(a, []byte{byte(i)})
			tx.AddEdge(a, 0, b, []byte{byte(i)})
		})
	}
	waitMaint(t, g, "a background pass over the churn", func() bool {
		return g.MaintStats().Passes.Load() >= 1
	})
	g.CompactNow()
	s, err := g.SnapshotAt(e0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if d, _ := s.GetVertex(a); string(d) != "v1" {
		t.Fatalf("historic vertex version lost: %q", d)
	}
	var got byte = 0xFF
	s.ScanNeighbors(a, 0, func(dst VertexID, p []byte) bool { got = p[0]; return false })
	if got != 0 {
		t.Fatalf("historic edge version lost: got %d", got)
	}
	// The current state is intact too.
	cur, _ := g.Snapshot()
	defer cur.Release()
	if d := cur.Degree(a, 0); d != 1 {
		t.Fatalf("live degree %d", d)
	}
}
