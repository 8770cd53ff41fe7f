package core

// The checkpoint record codec (checkpoint.go): the two on-disk formats are
// pinned byte for byte, damaged files must surface from Open as errors,
// and the one record reader is fuzzed against the one record writer.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
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

// TestCheckpointFormatGolden pins LGCKPT1 and LGDLT1: the hex below is
// what the pre-codec-merge writers produced for this graph, so a moved
// byte in either format fails here before it fails a recovery.
func TestCheckpointFormatGolden(t *testing.T) {
	const (
		wantSnap  = "4c47434b5054310a040c00000476300400040400020461620202080678797a020004763100040004763202020200027108000476340200020a027701"
		wantDelta = "4c47444c54310a0404060c00000476300400040204414204000200020006763127000602000001"
	)
	dir := t.TempDir()
	g := goldenCkptGraph(t, dir)
	defer g.Close()
	_, snap := readOne(t, dir, "ckpt-*.snap")
	if got := hex.EncodeToString(snap); got != wantSnap {
		t.Errorf("LGCKPT1 bytes moved:\n got %s\nwant %s", got, wantSnap)
	}
	goldenCkptDelta(t, g)
	_, delta := readOne(t, dir, "ckpt-*.delta")
	if got := hex.EncodeToString(delta); got != wantDelta {
		t.Errorf("LGDLT1 bytes moved:\n got %s\nwant %s", got, wantDelta)
	}
}

// ckptBytes assembles a checkpoint file by hand: magic, then each part as
// a signed varint (an int) or verbatim (a string).
func ckptBytes(magic []byte, parts ...any) []byte {
	b := append([]byte(nil), magic...)
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			b = binary.AppendVarint(b, int64(p))
		case string:
			b = append(b, p...)
		}
	}
	return b
}

// TestDamagedCheckpointIsAnError replaces the snapshot, then the delta, of
// a real checkpoint chain with files that break one rule the writer
// guarantees, and reopens the directory: Open must return
// ErrCheckpointDamaged — not panic, and not allocate what a damaged length
// says. Checkpoint files carry no checksum, so these checks are all that
// stands between a flipped bit and the allocator.
func TestDamagedCheckpointIsAnError(t *testing.T) {
	damage := []struct {
		name string
		body []any // follows the header; vertex IDs must stay below 6
	}{
		{"negative data length", []any{0, 0, -5}},
		{"huge property length", []any{0, 0, 0, 1, 0, 1, 1, 1 << 40}},
		{"data longer than the file", []any{0, 0, 9, "short"}},
		{"negative label count", []any{0, 0, 0, -1}},
		{"edge count past the file", []any{0, 0, 0, 1, 0, 1000, -1}},
		{"truncated before the terminator", []any{0, 0, 2, "ab", 0}},
		{"truncated inside a number", []any{0, 0, 0, 1, "\x80"}},
		{"vertex ID at nextVertexID", []any{6, 0, 0, 0, -1}},
		{"vertex IDs descending", []any{2, 0, 0, 0, 1, 0, 0, 0, -1}},
		{"vertex ID repeated", []any{2, 0, 0, 0, 2, 0, 0, 0, -1}},
	}
	for _, kind := range []string{"snap", "delta"} {
		for _, d := range damage {
			t.Run(kind+"/"+d.name, func(t *testing.T) {
				dir := t.TempDir()
				g := goldenCkptGraph(t, dir)
				goldenCkptDelta(t, g)
				g.Close()
				meta, ok, err := wal.ReadCheckpointMeta(dir)
				if err != nil || !ok || len(meta.DeltaEpochs) != 1 {
					t.Fatalf("meta %+v ok=%v err=%v", meta, ok, err)
				}
				open := func() (*Graph, uint64, error) {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					g, err := Open(Options{Dir: dir, Workers: 4, CompactEvery: -1})
					runtime.ReadMemStats(&after)
					return g, after.TotalAlloc - before.TotalAlloc, err
				}
				clean, cleanGrew, err := open()
				if err != nil {
					t.Fatalf("undamaged chain: %v", err)
				}
				clean.Close()

				path, file := filepath.Join(dir, meta.Path), ckptBytes(ckptMagic, int(meta.BaseEpoch), 6)
				if kind == "delta" {
					de := meta.DeltaEpochs[0]
					path = filepath.Join(dir, deltaFileName(de))
					file = ckptBytes(deltaMagic, int(meta.BaseEpoch), int(meta.BaseEpoch), int(de), 6)
				}
				file = append(file, ckptBytes(nil, d.body...)...)
				if err := os.WriteFile(path, file, 0o644); err != nil {
					t.Fatal(err)
				}
				g2, grew, err := open()
				if err == nil {
					g2.Close()
					t.Fatal("Open accepted the damaged file")
				}
				if !errors.Is(err, ErrCheckpointDamaged) || !bytes.Contains([]byte(err.Error()), []byte(filepath.Base(path))) {
					t.Fatalf("Open = %v, want ErrCheckpointDamaged naming %s", err, filepath.Base(path))
				}
				// A clean Open of this chain is the yardstick: damage may
				// not make recovery allocate more than that plus slack.
				if grew > cleanGrew+1<<20 {
					t.Fatalf("Open of a %d-byte damaged file allocated %d bytes, a clean Open %d", len(file), grew, cleanGrew)
				}
			})
		}
	}
}

// TestSparseCheckpointLoads is the counter-example to bounding record IDs
// (or the header's nextVertexID) by the file's size: a full dump leaves out
// vertices with neither payload nor labels and a delta carries only what
// changed, so both files here are a dozen bytes whose one record is ID 299.
// A loader that charged ID gaps against the bytes left would refuse them.
func TestSparseCheckpointLoads(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Workers: 4, CompactEvery: -1, Ckpt: CkptOptions{RebaseFraction: 1}}
	g, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 300; i++ {
			tx.AddVertex([]byte("x"))
		}
	})
	mustCommit(t, g, func(tx *Tx) {
		for v := VertexID(0); v < 299; v++ {
			tx.DeleteVertex(v)
		}
	})
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, g, func(tx *Tx) { tx.PutVertex(299, []byte("y")) })
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Close()
	for _, pat := range []string{"ckpt-*.snap", "ckpt-*.delta"} {
		if _, b := readOne(t, dir, pat); len(b) > 32 {
			t.Fatalf("%s is %d bytes; the sparse graph no longer dumps sparse", pat, len(b))
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
		err = scratch.loadCkptFile(filepath.Join(dir, meta.Path), ckptMagic, meta.Epoch)
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

// fuzzNextVertex is the header nextVertexID the fuzz bodies load under.
const fuzzNextVertex = 64

// ckptScratch is a volatile graph the codec tests load record bodies into
// and dump them back out of, at epoch 1.
type ckptScratch struct{ g *Graph }

func newCkptScratch(t testing.TB) *ckptScratch {
	g, err := Open(Options{Workers: 1, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	g.epochs.Init(1)
	g.nextVertex.Store(fuzzNextVertex) // what loading the header would do
	return &ckptScratch{g: g}
}

// load feeds body to the shared reader, returning what it left unread.
func (s *ckptScratch) load(body []byte) (left int64, err error) {
	r := newCkptReader(bytes.NewReader(body), int64(len(body)))
	s.g.loadCkptRecords(r, fuzzNextVertex, 1)
	return r.left(), r.err
}

// dump writes every vertex through the shared writer, as a full snapshot
// would.
func (s *ckptScratch) dump(t testing.TB) []byte {
	snap, err := s.g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	s.g.writeCkptRecords(w, snap, nil, fuzzNextVertex)
	w.Flush()
	return buf.Bytes()
}

// reset erases every vertex with the format's own erase record, so the
// next body loads into an empty graph.
func (s *ckptScratch) reset(t testing.TB) {
	var parts []any
	for v := 0; v < fuzzNextVertex; v++ {
		parts = append(parts, v, 1, 0, 0)
	}
	if _, err := s.load(ckptBytes(nil, append(parts, -1)...)); err != nil {
		t.Fatalf("reset: %v", err)
	}
}

// redump is reset + load + dump: one trip of bytes through the codec.
func (s *ckptScratch) redump(t testing.TB, body []byte) []byte {
	s.reset(t)
	if left, err := s.load(body); err != nil || left != 0 {
		t.Fatalf("the writer's own output did not load back whole: left=%d err=%v\n%x", left, err, body)
	}
	return s.dump(t)
}

// goldenBodies returns the record bodies of a real full snapshot and a
// real delta (each header here is one-byte varints: 2 resp. 4 of them).
func goldenBodies(t testing.TB) (full, delta []byte) {
	dir := t.TempDir()
	g := goldenCkptGraph(t, dir)
	goldenCkptDelta(t, g)
	g.Close()
	_, snap := readOne(t, dir, "ckpt-*.snap")
	_, dlt := readOne(t, dir, "ckpt-*.delta")
	return snap[len(ckptMagic)+2:], dlt[len(deltaMagic)+4:]
}

// TestCheckpointRecordsRoundTrip: a real snapshot body loaded by the
// shared reader and dumped by the shared writer comes back byte for byte.
// One trip reverses each adjacency list (the dump scans newest first, the
// load appends in file order), so identity takes two.
func TestCheckpointRecordsRoundTrip(t *testing.T) {
	full, _ := goldenBodies(t)
	s := newCkptScratch(t)
	once := s.redump(t, full)
	if bytes.Equal(once, full) {
		t.Fatal("one trip left multi-edge lists in file order; the golden graph no longer has any?")
	}
	if twice := s.redump(t, once); !bytes.Equal(twice, full) {
		t.Fatalf("two trips through the codec moved bytes:\n in  %x\n out %x", full, twice)
	}
}

// FuzzLoadCheckpointRecords feeds arbitrary bytes to the one record reader
// full snapshots and deltas share. Whatever the input: no panic, nothing
// but ErrCheckpointDamaged, no allocation out of proportion to the input,
// never more bytes consumed than given; and what it accepts is real graph
// state — the shared writer's dump of it is no longer than the bytes
// consumed (the reader invents nothing) and survives further trips through
// the codec unchanged (modulo the list reversal above: period two).
func FuzzLoadCheckpointRecords(f *testing.F) {
	full, delta := goldenBodies(f)
	f.Add(full)
	f.Add(delta)
	f.Add(full[:len(full)/2])
	f.Add(delta[:len(delta)-1])
	f.Add(ckptBytes(nil, 0, 0, -5))
	f.Add(ckptBytes(nil, 0, 0, 0, 1, 0, 1, 1, 1<<40))
	f.Add(ckptBytes(nil, 3, 0, 0, 0, 2, 0, 0, 0, -1))
	f.Add(ckptBytes(nil, 1, 2, 1, "x", 2, 7, 2, 9, 0, 9, 1, "y", 7, 0, -1, "trailing"))
	s := newCkptScratch(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		s.reset(t)
		slabs := s.g.AllocStats().SlabWords
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		left, err := s.load(data)
		runtime.ReadMemStats(&after)
		// Budget: the reader's 1 MiB buffer, the arena slabs the loaded
		// edges reserved, and per
		// input byte at most one minimal TEL with its index entries —
		// doubled by block upgrades; the slack absorbs the fuzz worker's
		// own background allocation.
		budget := uint64(2<<20) + uint64(s.g.AllocStats().SlabWords-slabs)*8 + 2048*uint64(len(data))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
			t.Fatalf("loading %d bytes allocated %d (budget %d)", len(data), grew, budget)
		}
		if left < 0 || left > int64(len(data)) {
			t.Fatalf("%d of %d bytes left", left, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrCheckpointDamaged) {
				t.Fatalf("rejected with %v, want ErrCheckpointDamaged", err)
			}
			return
		}
		consumed := data[:int64(len(data))-left]
		once := s.dump(t)
		if len(once) > len(consumed) {
			t.Fatalf("accepted %d bytes but dumps %d:\n in  %x\n out %x", len(consumed), len(once), consumed, once)
		}
		twice := s.redump(t, once)
		if thrice := s.redump(t, twice); len(twice) != len(once) || !bytes.Equal(thrice, once) {
			t.Fatalf("accepted state is not stable under the codec:\n in  %x\n 1st %x\n 2nd %x\n 3rd %x", consumed, once, twice, thrice)
		}
	})
}
