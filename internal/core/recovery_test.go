package core

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"livegraph/internal/disk"
	"livegraph/internal/storage"
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

// TestCheckpointKeepsEdgesOfUnaddedSource: a vertex that has edges but was
// never added is still below the checkpoint's nextVertexID, so its edges
// are in the snapshot and survive the pruning of the segments that held
// them.
func TestCheckpointKeepsEdgesOfUnaddedSource(t *testing.T) {
	dir := t.TempDir()
	g := openDurable(t, dir)
	insert := func(from, to int) {
		for lo := from; lo < to; lo += 100 {
			mustCommit(t, g, func(tx *Tx) {
				for i := lo; i < min(lo+100, to); i++ {
					if err := tx.InsertEdge(0, 0, VertexID(i+1), nil); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
	insert(0, 1000)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(1000, 3000)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	g2 := openDurable(t, dir)
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if d := r.Degree(0, 0); d != 3000 {
		t.Fatalf("degree of the unadded source after reopen = %d, want 3000", d)
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
		{"headerless segment", "wal-000001.log", []byte("\x01\x00\x00\x00\x00\x00\x00\x00headerless frame"), disk.ErrBadMagic},
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

// TestRecoveredFreesAreReusable: checkpoint load and WAL replay both grow
// a hub's TEL block by block and free each block they outgrow. Every one
// of those blocks must land on the allocator's free lists, where the next
// Alloc of its class finds it: draining each class from the largest a slab
// holds down to the smallest, with no writes in between, empties the
// recycled pool.
func TestRecoveredFreesAreReusable(t *testing.T) {
	dir := t.TempDir()
	g := openDurable(t, dir)
	var hub VertexID
	mustCommit(t, g, func(tx *Tx) { hub, _ = tx.AddVertex(nil) })
	insert := func(lo, hi int) {
		for ; lo < hi; lo += 100 {
			mustCommit(t, g, func(tx *Tx) {
				for i := lo; i < lo+100; i++ {
					if err := tx.InsertEdge(hub, 0, VertexID(1+i), []byte("p")); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
	insert(0, 1000) // loaded from the checkpoint
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(1000, 3000) // replayed from the WAL, past the loaded block
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := Open(Options{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	r, _ := g.BeginRead()
	if d := r.Degree(hub, 0); d != 3000 {
		t.Fatalf("recovered hub degree %d, want 3000", d)
	}
	r.Commit()
	recycled := func() int64 { return g.AllocStats().RecycledWords }
	if recycled() == 0 {
		t.Fatal("recovery freed no blocks: the hub never outgrew one")
	}
	// The class of a whole 1 MiB slab (2^17 words) is the largest block
	// carved from one.
	for class := storage.ClassFor(1 << 17); class >= 0; class-- {
		// An Alloc that leaves the pool no smaller carved a fresh block:
		// the class's list is empty.
		for before := recycled(); before > 0; before = recycled() {
			g.alloc.Alloc(class)
			if recycled() >= before {
				break
			}
		}
	}
	if w := recycled(); w != 0 {
		t.Fatalf("%d recycled words no Alloc hands out", w)
	}
}

// TestRecoveryFrontierMatchesPrimary: the vertex frontier has one rule on
// every apply path — a vertex-op target or an edge source moves it, a
// destination never does — so a recovered graph and a follower agree with
// the primary on NumVertices, and a checkpoint covers every vertex that
// owns records.
func TestRecoveryFrontierMatchesPrimary(t *testing.T) {
	t.Run("put-vertex-survives-full-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		g := openDurable(t, dir)
		mustCommit(t, g, func(tx *Tx) {
			if err := tx.PutVertex(5, []byte("five")); err != nil {
				t.Fatal(err)
			}
		})
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g.Close()
		g2 := openDurable(t, dir)
		defer g2.Close()
		r, _ := g2.BeginRead()
		defer r.Commit()
		if data, err := r.GetVertex(5); err != nil || string(data) != "five" {
			t.Fatalf("vertex 5 after a full checkpoint and reopen = %q, %v", data, err)
		}
	})

	t.Run("edge-destination", func(t *testing.T) {
		commits := []func(tx *Tx){
			func(tx *Tx) {
				for i := 0; i < 4; i++ {
					tx.AddVertex(nil)
				}
			},
			func(tx *Tx) { tx.InsertEdge(0, 0, 1000, nil) },
			func(tx *Tx) { tx.InsertEdge(1, 0, 1001, nil) }, // the WAL tail
		}
		variants := []struct {
			name      string
			ckptAfter map[int]bool // checkpoint after these commits
			deltas    int64
		}{
			{"wal", nil, 0},
			{"full+wal", map[int]bool{1: true}, 0},
			{"base+delta+wal", map[int]bool{0: true, 1: true}, 1},
		}
		const want = 4 // AddVertex ×4; sources 0 and 1 are below it already
		for _, vt := range variants {
			dir := t.TempDir()
			g := openCkptGraph(t, dir, disk.NewReal(), deltaCkptOpts)
			for i, c := range commits {
				mustCommit(t, g, c)
				if vt.ckptAfter[i] {
					if err := g.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := g.NumVertices(); got != want {
				t.Errorf("%s: primary NumVertices = %d, want %d", vt.name, got, want)
			}
			if got := g.CkptStats().Deltas.Load(); got != vt.deltas {
				t.Fatalf("%s: %d delta checkpoints, want %d", vt.name, got, vt.deltas)
			}
			if vt.ckptAfter == nil {
				f := openFollower(t, Options{})
				tl := wal.Tail(dir, 0, g.DurableEpoch)
				catchUp(t, tl, f)
				tl.Close()
				if got := f.NumVertices(); got != want {
					t.Errorf("follower NumVertices = %d, want %d", got, want)
				}
			}
			g.Close()
			g2 := openCkptGraph(t, dir, disk.NewReal(), deltaCkptOpts)
			got := g2.NumVertices()
			g2.Close()
			if got != want {
				t.Errorf("%s: NumVertices after reopen = %d, want %d", vt.name, got, want)
			}
		}
	})

	t.Run("far-destination-reopens", func(t *testing.T) {
		dir := t.TempDir()
		g := openDurable(t, dir)
		mustCommit(t, g, func(tx *Tx) {
			if err := tx.InsertEdge(0, 0, 1<<40, nil); err != nil {
				t.Fatal(err)
			}
		})
		g.Close()
		opened := make(chan *Graph, 1)
		go func() {
			g2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Error(err)
			}
			opened <- g2
		}()
		select {
		case g2 := <-opened:
			if g2 == nil {
				return
			}
			defer g2.Close()
			if got := g2.NumVertices(); got != 1 {
				t.Fatalf("NumVertices after reopen = %d, want 1", got)
			}
			r, _ := g2.BeginRead()
			defer r.Commit()
			if d := r.Degree(0, 0); d != 1 {
				t.Fatalf("degree of 0 after reopen = %d, want 1", d)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("reopening a graph with an edge to 1<<40 took over 5 s")
		}
	})
}
