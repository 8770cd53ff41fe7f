package core

// The checkpoint files (checkpoint.go): both formats are pinned byte for
// byte, damaged files must surface from Open as errors, and the loader is
// fuzzed against the writer.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"livegraph/internal/wal"
)

// goldenCkptGraph builds the fixed graph the format pin dumps: six
// vertices (3 deleted, 5 with neither payload nor edges left out of the
// full dump), two labels, one property-less edge. It returns after the
// full checkpoint; goldenCkptDelta makes the changes the delta carries.
func goldenCkptGraph(t testing.TB, dir string) *Graph {
	t.Helper()
	g, err := Open(Options{Dir: dir, Workers: 4, CompactEvery: -1, Ckpt: deltaCkptOpts})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := g.Begin()
	for i := 0; i < 6; i++ {
		if _, err := tx.AddVertex([]byte{'v', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	tx.InsertEdge(0, 0, 1, []byte("ab"))
	tx.InsertEdge(0, 0, 2, nil) // property-less
	tx.InsertEdge(0, 1, 4, []byte("xyz"))
	tx.InsertEdge(2, 1, 0, []byte("q"))
	tx.InsertEdge(4, 0, 5, []byte("w"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = g.Begin()
	tx.DeleteVertex(3)
	tx.DeleteVertex(5)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenCkptDelta dirties three vertices — an upsert and a delete on 0, a
// payload rewrite on 1, and 3 again (deleted, no edges: the erase record a
// full dump would omit) — and checkpoints them as a delta.
func goldenCkptDelta(t testing.TB, g *Graph) {
	t.Helper()
	tx, _ := g.Begin()
	tx.AddEdge(0, 0, 1, []byte("AB"))
	if err := tx.DeleteEdge(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	tx.PutVertex(1, []byte("v1'"))
	tx.DeleteVertex(3)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := g.CkptStats().Deltas.Load(); got != 1 {
		t.Fatalf("second checkpoint wrote %d deltas, want 1", got)
	}
}

func readOne(t testing.TB, dir, pattern string) (string, []byte) {
	t.Helper()
	m, _ := filepath.Glob(filepath.Join(dir, pattern))
	if len(m) != 1 {
		t.Fatalf("%s: %d files, want 1", pattern, len(m))
	}
	b, err := os.ReadFile(m[0])
	if err != nil {
		t.Fatal(err)
	}
	return m[0], b
}

// TestCheckpointFormatGolden pins LGCKPT2 and LGDLT2: the hex below is
// what the writers produce for this graph, so a moved byte in either
// format fails here before it fails a recovery.
func TestCheckpointFormatGolden(t *testing.T) {
	const (
		wantSnap  = "4c47434b5054320a02000000000000000600000081339fbf02000000040c02000000000000005000000018121f481c0000000700000200047630040000040004000002046162040002080678797a0800000007020002020476310e00000007040002040476320404020002710e00000007080002080476340408000a02770200000000000000000000003d1d8349"
		wantDelta = "4c47444c54320a030000000000000008000000ee100e8b040000000404060c03000000000000002c0000009465295214000000070000020004763004000002044142040000040009000000070200020206763127030000000706000300000000000000000000000dc9f278"
	)
	dir := t.TempDir()
	g := goldenCkptGraph(t, dir)
	defer g.Close()
	_, snap := readOne(t, dir, "ckpt-*.snap")
	if got := hex.EncodeToString(snap); got != wantSnap {
		t.Errorf("LGCKPT2 bytes moved:\n got %s\nwant %s", got, wantSnap)
	}
	goldenCkptDelta(t, g)
	_, delta := readOne(t, dir, "ckpt-*.delta")
	if got := hex.EncodeToString(delta); got != wantDelta {
		t.Errorf("LGDLT2 bytes moved:\n got %s\nwant %s", got, wantDelta)
	}
}

// ops assembles op bytes by hand: a byte is an op code, an int a signed
// varint, a string verbatim.
func ops(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch p := p.(type) {
		case byte:
			b = append(b, p)
		case int:
			b = binary.AppendVarint(b, int64(p))
		case string:
			b = append(b, p...)
		}
	}
	return b
}

// ckptFile assembles a checkpoint file by hand with wal.AppendFrame: the
// magic, the header frame (chain, then nextVertexID 6), then each of
// frames as one frame of one record, all stamped with chain's last
// epoch, then the end frame.
func ckptFile(magic []byte, chain []int64, frames ...[]byte) []byte {
	epoch := chain[len(chain)-1]
	var hdr []byte
	for _, x := range append(chain, 6) {
		hdr = binary.AppendVarint(hdr, x)
	}
	b := wal.AppendFrame(append([]byte(nil), magic...), epoch, [][]byte{hdr})
	for _, f := range frames {
		b = wal.AppendFrame(b, epoch, [][]byte{f})
	}
	return wal.AppendFrame(b, epoch, nil)
}

// goldenCkptDir writes the golden chain — a snapshot and one delta — to a
// fresh directory and returns it with its pointer.
func goldenCkptDir(t *testing.T) (string, wal.CheckpointMeta) {
	t.Helper()
	dir := t.TempDir()
	g := goldenCkptGraph(t, dir)
	goldenCkptDelta(t, g)
	g.Close()
	meta, ok, err := wal.ReadCheckpointMeta(dir)
	if err != nil || !ok || len(meta.DeltaEpochs) != 1 {
		t.Fatalf("meta %+v ok=%v err=%v", meta, ok, err)
	}
	return dir, meta
}

// openCounted opens dir and reports how many bytes the Open allocated.
func openCounted(dir string) (*Graph, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Open(Options{Dir: dir, Workers: 4, CompactEvery: -1})
	runtime.ReadMemStats(&after)
	return g, after.TotalAlloc - before.TotalAlloc, err
}

// wantDamaged opens dir, where path has been replaced by damage: Open must
// return ErrCheckpointDamaged naming the file — not panic, not start up —
// and allocate no more than a clean Open of the chain (cleanGrew) plus
// slack, whatever a damaged length says.
func wantDamaged(t *testing.T, dir, path string, damage []byte, cleanGrew uint64, what string) {
	t.Helper()
	if err := os.WriteFile(path, damage, 0o644); err != nil {
		t.Fatal(err)
	}
	g, grew, err := openCounted(dir)
	if err == nil {
		g.Close()
		t.Fatalf("%s: Open accepted the damaged file", what)
	}
	if !errors.Is(err, ErrCheckpointDamaged) || !bytes.Contains([]byte(err.Error()), []byte(filepath.Base(path))) {
		t.Fatalf("%s: Open = %v, want ErrCheckpointDamaged naming %s", what, err, filepath.Base(path))
	}
	if grew > cleanGrew+1<<20 {
		t.Fatalf("%s: Open of a %d-byte damaged file allocated %d bytes, a clean Open %d", what, len(damage), grew, cleanGrew)
	}
}

// TestDamagedCheckpointIsAnError replaces the snapshot, then the delta, of
// a real checkpoint chain with damaged files and reopens the directory.
// Every single-byte flip and every truncation of the real files must fail
// verification; and checksummed frames whose content breaks a rule the
// writer keeps must fail the load rules. The first ten cases carry the
// names of the old format's damage cases, each mapped to the field that
// plays its part in frames: a label count became each edge's label, an
// edge count the frame's length, the -1 terminator the end frame.
func TestDamagedCheckpointIsAnError(t *testing.T) {
	damage := []struct {
		name   string
		frames [][]byte // data frames after the header; nil: see build
		build  func(file []byte) []byte
	}{
		{"negative data length", [][]byte{ops(opResetVertex, 0, 0, opPutVertex, 0, -5)}, nil},
		{"huge property length", [][]byte{ops(opResetVertex, 0, 0, opInsertEdge, 0, 0, 1, 1<<40)}, nil},
		{"data longer than the file", [][]byte{ops(opResetVertex, 0, 0, opPutVertex, 0, 9, "short")}, nil},
		{"negative label count", [][]byte{ops(opResetVertex, 0, 0, opInsertEdge, 0, -1, 1, 0)}, nil},
		{"edge count past the file", [][]byte{ops(opResetVertex, 0, 0, opInsertEdge, 0, 0, 1, 0)}, func(file []byte) []byte {
			// The data frame's length field claims more than the file holds.
			off := len(file) - 16 - (16 + 4 + len(ops(opResetVertex, 0, 0, opInsertEdge, 0, 0, 1, 0)))
			binary.LittleEndian.PutUint32(file[off+8:], 1000)
			return file
		}},
		{"truncated before the terminator", [][]byte{ops(opResetVertex, 0, 0)}, func(file []byte) []byte {
			return file[:len(file)-16] // no end frame
		}},
		{"truncated inside a number", [][]byte{ops(opResetVertex, 0, 0, opPutVertex, "\x80")}, nil},
		{"vertex ID at nextVertexID", [][]byte{ops(opResetVertex, 6, 0)}, nil},
		{"vertex IDs descending", [][]byte{ops(opResetVertex, 2, 0), ops(opResetVertex, 1, 0)}, nil},
		{"vertex ID repeated", [][]byte{ops(opResetVertex, 2, 0, opResetVertex, 2, 0)}, nil},
		{"unknown op byte", [][]byte{ops(opResetVertex, 0, 0, byte(0xEE), 0, 0)}, nil},
		{"op before any reset", [][]byte{ops(opPutVertex, 0, 1, "x")}, nil},
		{"op of another vertex", [][]byte{ops(opResetVertex, 0, 0, opPutVertex, 1, 1, "x")}, nil},
		{"op a checkpoint never holds", [][]byte{ops(opResetVertex, 0, 0, opUpsertEdge, 0, 0, 1, 0)}, nil},
		{"bytes after the end frame", [][]byte{ops(opResetVertex, 0, 0)}, func(file []byte) []byte {
			return append(file, 0)
		}},
		{"frame of another epoch", nil, func(file []byte) []byte {
			// A whole verifying frame stamped one epoch later, before the end.
			end := len(file) - 16
			epoch := int64(binary.LittleEndian.Uint64(file[end:]))
			extra := wal.AppendFrame(nil, epoch+1, [][]byte{ops(opResetVertex, 0, 0)})
			return append(append(append([]byte(nil), file[:end]...), extra...), file[end:]...)
		}},
	}
	for _, kind := range []string{"snap", "delta"} {
		for _, d := range damage {
			t.Run(kind+"/"+d.name, func(t *testing.T) {
				dir, meta := goldenCkptDir(t)
				clean, cleanGrew, err := openCounted(dir)
				if err != nil {
					t.Fatalf("undamaged chain: %v", err)
				}
				clean.Close()
				path := filepath.Join(dir, snapFileName(meta.BaseEpoch))
				file := ckptFile(ckptMagic, []int64{meta.BaseEpoch}, d.frames...)
				if kind == "delta" {
					de := meta.DeltaEpochs[0]
					path = filepath.Join(dir, deltaFileName(de))
					file = ckptFile(deltaMagic, []int64{meta.BaseEpoch, meta.BaseEpoch, de}, d.frames...)
				}
				if d.build != nil {
					file = d.build(file)
				}
				wantDamaged(t, dir, path, file, cleanGrew, d.name)
			})
		}
		// Every single-byte flip and every truncation of the writer's own
		// file fails verification: no byte of it is trusted unchecked.
		t.Run(kind+"/every flip and truncation", func(t *testing.T) {
			dir, meta := goldenCkptDir(t)
			clean, cleanGrew, err := openCounted(dir)
			if err != nil {
				t.Fatalf("undamaged chain: %v", err)
			}
			clean.Close()
			path := filepath.Join(dir, snapFileName(meta.BaseEpoch))
			if kind == "delta" {
				path = filepath.Join(dir, deltaFileName(meta.DeltaEpochs[0]))
			}
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for off := range good {
				flipped := append([]byte(nil), good...)
				flipped[off] ^= 0xFF
				wantDamaged(t, dir, path, flipped, cleanGrew, fmt.Sprintf("flip at %d", off))
				wantDamaged(t, dir, path, good[:off], cleanGrew, fmt.Sprintf("truncated to %d", off))
			}
		})
	}
	// A file of the previous format is refused by name.
	t.Run("old format", func(t *testing.T) {
		dir, meta := goldenCkptDir(t)
		path := filepath.Join(dir, snapFileName(meta.BaseEpoch))
		old := append([]byte("LGCKPT1\n"), binary.AppendVarint(nil, meta.BaseEpoch)...)
		wantDamaged(t, dir, path, old, 64<<20, "LGCKPT1")
		_, _, err := openCounted(dir)
		if !bytes.Contains([]byte(err.Error()), []byte("LGCKPT1")) {
			t.Fatalf("Open = %v, want the error to name LGCKPT1", err)
		}
	})
}

// TestSparseCheckpointLoads is the counter-example to bounding record IDs
// (or the header's nextVertexID) by the file's size: a full dump leaves out
// vertices with neither payload nor labels and a delta carries only what
// changed, so both files of a 300-vertex graph with 299 vertices deleted
// hold one vertex, ID 299. They are the size of a two-vertex graph's
// files, which hold one vertex too: only the fields that name the ID or
// the frontier past it — nextVertexID, the reset and the put — may be
// wider, by at most the varint width of 299 each. A loader that charged
// ID gaps against the bytes left would refuse them.
func TestSparseCheckpointLoads(t *testing.T) {
	build := func(n int) (Options, map[string]int) {
		dir := t.TempDir()
		opts := Options{Dir: dir, Workers: 4, CompactEvery: -1, Ckpt: CkptOptions{RebaseFraction: 1}}
		g, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		mustCommit(t, g, func(tx *Tx) {
			for i := 0; i < n; i++ {
				tx.AddVertex([]byte("x"))
			}
		})
		mustCommit(t, g, func(tx *Tx) {
			for v := VertexID(0); v < VertexID(n-1); v++ {
				tx.DeleteVertex(v)
			}
		})
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, g, func(tx *Tx) { tx.PutVertex(VertexID(n-1), []byte("y")) })
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g.Close()
		sizes := map[string]int{}
		for _, pat := range []string{"ckpt-*.snap", "ckpt-*.delta"} {
			_, b := readOne(t, dir, pat)
			sizes[pat] = len(b)
		}
		return opts, sizes
	}
	_, single := build(2)
	opts, sparse := build(300)
	slack := 3 * len(binary.AppendVarint(nil, 299))
	for pat, n := range sparse {
		if n < single[pat] || n > single[pat]+slack {
			t.Fatalf("%s is %d bytes, a two-vertex graph's %d (slack %d); the sparse graph no longer dumps sparse", pat, n, single[pat], slack)
		}
	}
	g2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if data, err := r.GetVertex(299); err != nil || string(data) != "y" || g2.NumVertices() != 300 {
		t.Fatalf("vertex 299 = %q, %v; %d vertices, want \"y\", nil, 300", data, err, g2.NumVertices())
	}
}

// TestFullCheckpointUnderVertexAllocation: the full dump runs outside the
// quiescent point, so AddVertex keeps raising the live frontier under it
// and InsertEdge publishes label lists for IDs the snapshot cannot see yet.
// The header's nextVertexID and the dump's loop bound must be one reading
// of that frontier — two let a record land at or past the header's value,
// which the loader refuses as damage, on a file whose WAL is already
// pruned. Every snapshot written under load must load, and the directory
// must reopen with everything acknowledged.
func TestFullCheckpointUnderVertexAllocation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Workers: 4, CompactEvery: -1, Ckpt: fullCkptOpts}
	g, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, g, func(tx *Tx) { tx.AddVertex(nil) }) // 0, every edge's target
	var (
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		acked [2][]VertexID
	)
	for w := range acked {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := g.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				v, _ := tx.AddVertex([]byte("v"))
				tx.InsertEdge(v, 0, 0, nil)
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				acked[w] = append(acked[w], v)
			}
		}()
	}
	for i := 0; i < 16 && !t.Failed(); i++ {
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		meta, ok, err := wal.ReadCheckpointMeta(dir)
		if err != nil || !ok {
			t.Fatalf("meta ok=%v err=%v", ok, err)
		}
		scratch, err := Open(Options{Workers: 1, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		err = scratch.loadCkptFile(filepath.Join(dir, snapFileName(meta.BaseEpoch)), ckptMagic, meta.Epoch())
		scratch.Close()
		if err != nil {
			t.Fatalf("checkpoint %d, written under load, does not load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	g.Close()

	g2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	for _, vs := range acked {
		for _, v := range vs {
			if _, err := r.GetVertex(v); err != nil || r.Degree(v, 0) != 1 {
				t.Fatalf("acknowledged vertex %d: err=%v degree=%d", v, err, r.Degree(v, 0))
			}
		}
	}
}

// loadScratch loads a checkpoint file's bytes into a fresh volatile graph
// through the one loader, as a snapshot or a delta by its magic.
func loadScratch(t testing.TB, file []byte, snapChain, deltaChain []int64) (*Graph, error) {
	g, err := Open(Options{Workers: 1, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	magic, chain := ckptMagic, snapChain
	if bytes.HasPrefix(file, deltaMagic) {
		magic, chain = deltaMagic, deltaChain
	}
	g.epochs.Init(chain[len(chain)-1])
	return g, g.loadCkpt(bytes.NewReader(file), int64(len(file)), magic, chain)
}

// dumpScratch writes g as a full snapshot at its read epoch through the
// one writer.
func dumpScratch(t testing.TB, g *Graph) []byte {
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	var buf bytes.Buffer
	if _, err := g.writeCkpt(&buf, ckptMagic, []int64{g.ReadEpoch()}, g.NumVertices(), snap, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// redump is load + dump: one trip of a snapshot through the loader and
// the writer.
func redump(t testing.TB, file []byte) []byte {
	epoch := int64(binary.LittleEndian.Uint64(file[len(ckptMagic):]))
	g, err := loadScratch(t, file, []int64{epoch}, nil)
	if err != nil {
		t.Fatalf("the writer's own output did not load back: %v\n%x", err, file)
	}
	return dumpScratch(t, g)
}

// goldenFiles returns a real full snapshot and a real delta with the
// chains their headers hold.
func goldenFiles(t testing.TB) (snap, delta []byte, snapChain, deltaChain []int64) {
	dir := t.TempDir()
	g := goldenCkptGraph(t, dir)
	goldenCkptDelta(t, g)
	g.Close()
	meta, _, err := wal.ReadCheckpointMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, snap = readOne(t, dir, "ckpt-*.snap")
	_, delta = readOne(t, dir, "ckpt-*.delta")
	return snap, delta, []int64{meta.BaseEpoch}, []int64{meta.BaseEpoch, meta.BaseEpoch, meta.Epoch()}
}

// TestCheckpointRecordsRoundTrip: a real snapshot loaded by the loader and
// dumped by the writer comes back byte for byte. One trip reverses each
// adjacency list (the dump scans newest first, the load appends in file
// order), so identity takes two.
func TestCheckpointRecordsRoundTrip(t *testing.T) {
	full, _, _, _ := goldenFiles(t)
	once := redump(t, full)
	if bytes.Equal(once, full) {
		t.Fatal("one trip left multi-edge lists in file order; the golden graph no longer has any?")
	}
	if twice := redump(t, once); !bytes.Equal(twice, full) {
		t.Fatalf("two trips through the loader and writer moved bytes:\n in  %x\n out %x", full, twice)
	}
}

// TestCheckpointHubSpansFrames: a vertex whose ops pass the frame cut
// continues in the next frame, and the file loads back whole.
func TestCheckpointHubSpansFrames(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Workers: 4, CompactEvery: -1}
	g, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	props := bytes.Repeat([]byte{'p'}, 1000)
	const edges = 3 * wal.CheckpointFrameBytes / 1000
	mustCommit(t, g, func(tx *Tx) {
		hub, _ := tx.AddVertex([]byte("hub"))
		for d := 0; d < edges; d++ {
			tx.InsertEdge(hub, 0, VertexID(d+1), props)
		}
		tx.AddVertex([]byte("after"))
	})
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Close()
	path, file := readOne(t, dir, "ckpt-*.snap")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(int64(len(ckptMagic)), 0); err != nil {
		t.Fatal(err)
	}
	frames := 0
	for left := int64(len(file) - len(ckptMagic)); left > 0; frames++ {
		fr, err := wal.ReadFrame(f, left)
		if err != nil {
			t.Fatal(err)
		}
		left -= int64(len(fr.Raw))
		if len(fr.Raw) > 16+wal.CheckpointFrameBytes+4+1100 {
			t.Fatalf("frame of %d bytes: the cut did not hold", len(fr.Raw))
		}
	}
	if frames < 5 { // header, three hub frames at least, end
		t.Fatalf("hub written in %d frames", frames)
	}
	g2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	if d := r.Degree(0, 0); d != edges {
		t.Fatalf("hub degree %d after reopen, want %d", d, edges)
	}
	if data, err := r.GetVertex(1); err != nil || string(data) != "after" {
		t.Fatalf("vertex after the hub = %q, %v", data, err)
	}
}

// FuzzLoadCheckpointRecords feeds arbitrary bytes to the checkpoint loader
// as a whole file: the magic, the frame sequence, the epochs, the end
// frame and the load rules, which neither FuzzReadFrame (one frame) nor
// FuzzDecodeOps (one record) reach. Whatever the input: no panic, no
// allocation out of proportion to the input; and what it accepts is real graph
// state — the writer's dump of it survives further trips through the
// loader and the writer unchanged (modulo the list reversal above: period
// two).
func FuzzLoadCheckpointRecords(f *testing.F) {
	full, delta, snapChain, deltaChain := goldenFiles(f)
	f.Add(full)
	f.Add(delta)
	f.Add(full[:len(full)/2])
	f.Add(delta[:len(delta)-1])
	f.Add(append(append([]byte(nil), full...), full[len(ckptMagic):]...))
	f.Add(append(append([]byte(nil), delta[:len(delta)-16]...), full[len(ckptMagic):]...))
	f.Add(ckptFile(ckptMagic, snapChain, ops(opResetVertex, 3, 0), ops(opResetVertex, 2, 0)))
	f.Add(ckptFile(deltaMagic, deltaChain, ops(opResetVertex, 1, 0, opPutVertex, 1, 1, "y", opInsertEdge, 1, 7, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := loadScratch(t, data, snapChain, deltaChain)
		runtime.ReadMemStats(&after)
		// Budget: the graph itself, the arena slabs the loaded edges
		// reserved, and per input byte at most one minimal TEL with its
		// index entries — doubled by block upgrades; the slack absorbs
		// the fuzz worker's own background allocation.
		budget := uint64(4<<20) + uint64(g.AllocStats().SlabWords)*8 + 2048*uint64(len(data))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
			t.Fatalf("loading %d bytes allocated %d (budget %d)", len(data), grew, budget)
		}
		// A full dump walks every ID below nextVertexID, which the loader
		// does not hold to the file's size (TestSparseCheckpointLoads).
		if err != nil || g.NumVertices() > 1<<16 {
			return
		}
		once := dumpScratch(t, g)
		twice := redump(t, once)
		if thrice := redump(t, twice); len(twice) != len(once) || !bytes.Equal(thrice, once) {
			t.Fatalf("accepted state is not stable under the loader and writer:\n in  %x\n 1st %x\n 2nd %x\n 3rd %x", data, once, twice, thrice)
		}
	})
}
