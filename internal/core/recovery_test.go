package core

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"livegraph/internal/disk"
	"livegraph/internal/wal"
)

func openDurable(t testing.TB, dir string) *Graph {
	t.Helper()
	g, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	g := openDurable(t, dir)
	var a, b VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex([]byte("alice"))
		b, _ = tx.AddVertex([]byte("bob"))
		tx.InsertEdge(a, 0, b, []byte("knows"))
	})
	mustCommit(t, g, func(tx *Tx) {
		tx.PutVertex(b, []byte("bob2"))
		tx.AddEdge(a, 0, b, []byte("knows-v2")) // upsert
		tx.InsertEdge(b, 1, a, nil)
	})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := openDurable(t, dir)
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if d, err := r.GetVertex(a); err != nil || string(d) != "alice" {
		t.Fatalf("vertex a: %q %v", d, err)
	}
	if d, err := r.GetVertex(b); err != nil || string(d) != "bob2" {
		t.Fatalf("vertex b: %q %v", d, err)
	}
	if p, err := r.GetEdge(a, 0, b); err != nil || string(p) != "knows-v2" {
		t.Fatalf("edge: %q %v", p, err)
	}
	if d := r.Degree(a, 0); d != 1 {
		t.Fatalf("degree a: %d (upsert must not duplicate)", d)
	}
	if d := r.Degree(b, 1); d != 1 {
		t.Fatalf("degree b: %d", d)
	}
	// New IDs continue past recovered ones.
	mustCommit(t, g2, func(tx *Tx) {
		c, _ := tx.AddVertex(nil)
		if c <= b {
			t.Fatalf("new vertex id %d not past recovered max %d", c, b)
		}
	})
}

func TestRecoveryDeletesSurvive(t *testing.T) {
	dir := t.TempDir()
	g := openDurable(t, dir)
	var a, b, c VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		b, _ = tx.AddVertex(nil)
		c, _ = tx.AddVertex(nil)
		tx.InsertEdge(a, 0, b, nil)
		tx.InsertEdge(a, 0, c, nil)
	})
	mustCommit(t, g, func(tx *Tx) {
		tx.DeleteEdge(a, 0, b)
		tx.DeleteVertex(c)
	})
	g.Close()

	g2 := openDurable(t, dir)
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if _, err := r.GetEdge(a, 0, b); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted edge resurrected: %v", err)
	}
	if d := r.Degree(a, 0); d != 1 {
		t.Fatalf("degree %d, want 1", d)
	}
	if _, err := r.GetVertex(c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted vertex resurrected: %v", err)
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	g := openDurable(t, dir)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex([]byte("root"))
		for i := 0; i < 50; i++ {
			tx.InsertEdge(a, 0, VertexID(100+i), []byte{byte(i)})
		}
	})
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the new WAL segment.
	mustCommit(t, g, func(tx *Tx) {
		tx.InsertEdge(a, 0, 999, []byte("post-ckpt"))
	})
	g.Close()

	// The checkpoint should exist and old segments be pruned.
	if m, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.snap")); len(m) != 1 {
		t.Fatalf("checkpoints on disk: %v", m)
	}

	g2 := openDurable(t, dir)
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if d, err := r.GetVertex(a); err != nil || string(d) != "root" {
		t.Fatalf("vertex: %q %v", d, err)
	}
	if d := r.Degree(a, 0); d != 51 {
		t.Fatalf("degree %d, want 51", d)
	}
	if p, err := r.GetEdge(a, 0, 999); err != nil || string(p) != "post-ckpt" {
		t.Fatalf("post-ckpt edge: %q %v", p, err)
	}
	if p, err := r.GetEdge(a, 0, 130); err != nil || p[0] != 30 {
		t.Fatalf("ckpt edge: %v %v", p, err)
	}
}

func TestCheckpointConcurrentWithWrites(t *testing.T) {
	dir := t.TempDir()
	g := openDurable(t, dir)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		for i := 0; i < 200; i++ {
			tx.InsertEdge(a, 0, VertexID(1000+i), nil)
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tx, _ := g.Begin()
			tx.InsertEdge(a, 0, VertexID(5000+i), nil)
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}
	}()
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	<-done
	g.Close()

	g2 := openDurable(t, dir)
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if d := r.Degree(a, 0); d != 300 {
		t.Fatalf("degree %d, want 300 (lost writes across checkpoint)", d)
	}
}

func TestCheckpointTwice(t *testing.T) {
	dir := t.TempDir()
	g := openDurable(t, dir)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		tx.InsertEdge(a, 0, 1, nil)
	})
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, g, func(tx *Tx) { tx.InsertEdge(a, 0, 2, nil) })
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, g, func(tx *Tx) { tx.InsertEdge(a, 0, 3, nil) })
	g.Close()

	g2 := openDurable(t, dir)
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if d := r.Degree(a, 0); d != 3 {
		t.Fatalf("degree %d, want 3", d)
	}
}

func TestRecoveryEmptyDir(t *testing.T) {
	g := openDurable(t, t.TempDir())
	defer g.Close()
	r, _ := g.BeginRead()
	defer r.Commit()
	if n := g.NumVertices(); n != 0 {
		t.Fatalf("fresh graph has %d vertices", n)
	}
}

func TestRecoveryTornWALTail(t *testing.T) {
	dir := t.TempDir()
	g := openDurable(t, dir)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex(nil)
		tx.InsertEdge(a, 0, 7, nil)
	})
	mustCommit(t, g, func(tx *Tx) { tx.InsertEdge(a, 0, 8, nil) })
	g.Close()
	// Tear the WAL tail (simulate crash mid-write).
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no wal segment")
	}
	seg := segs[len(segs)-1]
	st, _ := os.Stat(seg)
	os.Truncate(seg, st.Size()-5)

	g2 := openDurable(t, dir)
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	// First tx must survive; second (torn) is lost.
	if _, err := r.GetEdge(a, 0, 7); err != nil {
		t.Fatalf("first tx lost: %v", err)
	}
	if _, err := r.GetEdge(a, 0, 8); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn tx partially applied: %v", err)
	}
}

// A directory the one-log layout did not write is refused at Open with a
// named error — never skipped over, never misparsed as frames.
func TestRecoveryRefusesIncompatibleLayouts(t *testing.T) {
	legacyMeta := binary.LittleEndian.AppendUint64(nil, 42)      // epoch, no magic
	legacyMeta = binary.LittleEndian.AppendUint32(legacyMeta, 1) // MinWALSeq
	legacyMeta = binary.LittleEndian.AppendUint32(legacyMeta, 0) // shard count
	legacyMeta = append(legacyMeta, "ckpt-42.snap"...)
	shardOfTwo := disk.EncodeSuperblock(4096, 1<<20, disk.LogGeometry{Seq: 1, Shard: 1, Shards: 2})
	cases := []struct {
		name, file string
		data       []byte
		want       error
	}{
		{"sharded segment name", "wal-000001-s01.log", nil, wal.ErrSegmentName},
		{"legacy checkpoint meta", "CHECKPOINT", legacyMeta, wal.ErrCheckpointFormat},
		{"superblock of a sharded segment", "wal-000001.log", shardOfTwo[:], disk.ErrBadGeometry},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, c.file), c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := Open(Options{Dir: dir})
			if err == nil {
				g.Close()
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("Open = %v, want %v", err, c.want)
			}
		})
	}
}

func TestRecoveryToleratesCrashMidPrune(t *testing.T) {
	// The checkpointer deletes superseded segments one by one; a crash
	// mid-prune leaves some behind. Segments below the checkpoint's
	// MinWALSeq must be skipped and cleaned up, not replayed and not
	// reported as damage.
	dir := t.TempDir()
	g, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var a VertexID
	mustCommit(t, g, func(tx *Tx) {
		a, _ = tx.AddVertex([]byte("root"))
		for i := 0; i < 8; i++ {
			tx.InsertEdge(VertexID(i%4), 0, VertexID(100+i), nil)
		}
	})
	oldSegs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, g, func(tx *Tx) { tx.InsertEdge(a, 0, 999, nil) })
	g.Close()

	// Resurrect a pruned segment, as if the prune loop crashed partway.
	leftover := oldSegs[0]
	if err := os.WriteFile(leftover, []byte("stale-partial-segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open with a superseded segment left behind: %v", err)
	}
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if d, err := r.GetVertex(a); err != nil || string(d) != "root" {
		t.Fatalf("vertex: %q %v", d, err)
	}
	if _, err := r.GetEdge(a, 0, 999); err != nil {
		t.Fatalf("post-ckpt edge lost: %v", err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("stale segment file %s not cleaned up", leftover)
	}
}

func TestConcurrentCheckpointsDoNotLoseCommits(t *testing.T) {
	// Overlapping Checkpoint calls (reachable via the server's
	// /v1/checkpoint) are serialised; commits acknowledged between them
	// must survive recovery regardless of interleaving.
	dir := t.TempDir()
	g := openDurable(t, dir)
	var a VertexID
	mustCommit(t, g, func(tx *Tx) { a, _ = tx.AddVertex(nil) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := g.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	const writes = 200
	for i := 0; i < writes; i++ {
		tx, _ := g.Begin()
		tx.InsertEdge(a, 0, VertexID(1000+i), nil)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	g.Close()

	g2 := openDurable(t, dir)
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if d := r.Degree(a, 0); d != writes {
		t.Fatalf("recovered degree %d, want %d (commits lost across concurrent checkpoints)", d, writes)
	}
}
