package core

// Crash matrix for the checkpoint swap protocol, run under BOTH storage
// backends: the iosim backend simulates a crash by aborting Checkpoint at
// an injected stage (ckptCrashHook) and reopening; the real mmap backend
// additionally gets genuine process-exit crashes — the test re-execs its
// own binary as a child that dies (os.Exit, no Close, no tail trim) at
// the same protocol stages, and the parent recovers the directory
// in-process. Every acknowledged commit must survive every crash point,
// recovery must land on the epoch acknowledged at the crash, and stray
// swap-protocol temp files must be swept.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"livegraph/internal/disk"
	"livegraph/internal/iosim"
)

// ckptStages in protocol order; see ckptCrashHook in checkpoint.go.
var ckptStages = []string{"snap-tmp", "snap-durable", "meta-durable", "pruned"}

// crashBackends enumerates the two storage bottoms. The real backend uses
// a one-page initial segment so the crash matrix also exercises mmap
// growth/remap under load.
func crashBackends() map[string]func() disk.Backend {
	return map[string]func() disk.Backend{
		"iosim": func() disk.Backend { return disk.NewSim(iosim.NewDevice(iosim.Null)) },
		"disk":  func() disk.Backend { return disk.NewRealOpts(disk.RealOptions{SegBytes: 4096}) },
	}
}

func openBackendGraph(t *testing.T, dir string, b disk.Backend) *Graph {
	t.Helper()
	g, err := Open(Options{Dir: dir, Backend: b, Workers: 32, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seedAndCommit populates the standard crash-matrix dataset: 16 vertices,
// then one edge-insert transaction per k in [1, n].
func seedAndCommit(t *testing.T, g *Graph, n int) {
	t.Helper()
	init, _ := g.Begin()
	for i := 0; i < 16; i++ {
		init.AddVertex([]byte{byte(i)})
	}
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		tx, _ := g.Begin()
		for _, e := range crashEdges(k) {
			if err := tx.InsertEdge(e[0], 0, e[1], []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func verifyEdges(t *testing.T, g *Graph, n int) {
	t.Helper()
	r, _ := g.BeginRead()
	defer r.Commit()
	for k := 1; k <= n; k++ {
		for _, e := range crashEdges(k) {
			if _, err := r.GetEdge(e[0], 0, e[1]); err != nil {
				t.Fatalf("edge %v (k=%d) lost: %v", e, k, err)
			}
		}
	}
}

func assertNoStrayTmp(t *testing.T, dir string) {
	t.Helper()
	for _, pat := range []string{"*.snap.tmp", "*.delta.tmp", "CHECKPOINT.tmp"} {
		if strays, _ := filepath.Glob(filepath.Join(dir, pat)); len(strays) > 0 {
			t.Fatalf("stray temp files after recovery: %v", strays)
		}
	}
}

var errInjectedCrash = errors.New("injected checkpoint crash")

func TestCheckpointCrashMatrix(t *testing.T) {
	for bname, mk := range crashBackends() {
		for _, stage := range ckptStages {
			t.Run(bname+"/"+stage, func(t *testing.T) {
				dir := t.TempDir()
				g := openBackendGraph(t, dir, mk())
				seedAndCommit(t, g, 6)
				// A clean first checkpoint, so the crashing second one has
				// real prior state to supersede (old snapshot, old meta,
				// prune-eligible segments).
				if err := g.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for k := 7; k <= 12; k++ {
					tx, _ := g.Begin()
					for _, e := range crashEdges(k) {
						tx.InsertEdge(e[0], 0, e[1], []byte{byte(k)})
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}

				target := stage
				ckptCrashHook = func(s string) error {
					if s == target {
						return errInjectedCrash
					}
					return nil
				}
				defer func() { ckptCrashHook = nil }()
				err := g.Checkpoint()
				if !errors.Is(err, errInjectedCrash) {
					t.Fatalf("Checkpoint with %s crash = %v, want injected crash", stage, err)
				}
				ckptCrashHook = nil
				epochAtCrash := g.ReadEpoch()
				g.Close()

				g2 := openBackendGraph(t, dir, mk())
				defer g2.Close()
				if got := g2.ReadEpoch(); got != epochAtCrash {
					t.Fatalf("recovered to epoch %d, want %d", got, epochAtCrash)
				}
				verifyEdges(t, g2, 12)
				assertNoStrayTmp(t, dir)
				// The recovered graph accepts commits and checkpoints.
				tx, _ := g2.Begin()
				if err := tx.InsertEdge(0, 0, 9999, nil); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("post-recovery commit: %v", err)
				}
				if err := g2.Checkpoint(); err != nil {
					t.Fatalf("post-recovery checkpoint: %v", err)
				}
			})
		}
	}
}

func TestCheckpointSkipsWhenClean(t *testing.T) {
	// Incremental eligibility: a checkpoint with no commits since the last
	// one is a no-op — no new snapshot file, no WAL rotation.
	dir := t.TempDir()
	g := openBackendGraph(t, dir, disk.NewSim(nil))
	defer g.Close()
	seedAndCommit(t, g, 3)
	if g.DirtySinceCheckpoint() == 0 {
		t.Fatal("writes did not raise the dirty-since-checkpoint gauge")
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := g.DirtySinceCheckpoint(); got != 0 {
		t.Fatalf("gauge not reset by checkpoint: %d", got)
	}
	snaps1, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	segs1, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps2, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	segs2, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(snaps1) != len(snaps2) || len(segs1) != len(segs2) {
		t.Fatalf("clean checkpoint was not skipped: snaps %d->%d, segs %d->%d",
			len(snaps1), len(snaps2), len(segs1), len(segs2))
	}
	// New commits re-arm it. A tiny change on an existing base produces an
	// incremental checkpoint: the base snapshot stays, a delta appears.
	tx, _ := g.Begin()
	tx.InsertEdge(0, 0, 5555, nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps3, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	deltas3, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.delta"))
	if len(snaps3) != 1 || snaps3[0] != snaps1[0] {
		t.Fatalf("incremental checkpoint should keep the base snapshot: %v vs %v", snaps3, snaps1)
	}
	if len(deltas3) != 1 {
		t.Fatalf("dirty checkpoint did not produce a delta: %v", deltas3)
	}
}

// Real-backend process-exit crashes ------------------------------------------

// TestRealCrashChild is the re-exec target: it only runs when the parent
// sets LG_CRASH_CHILD, builds graph state in LG_CRASH_DIR on the real
// backend, records the acknowledged epoch in an EXPECT file, and dies with
// os.Exit — no Close, no mmap tail trim, exactly a process crash.
func TestRealCrashChild(t *testing.T) {
	mode := os.Getenv("LG_CRASH_CHILD")
	if mode == "" {
		t.Skip("re-exec child only")
	}
	dir := os.Getenv("LG_CRASH_DIR")
	// Delta stages pin the incremental path open (rebase never triggers);
	// other modes run the defaults.
	var ck CkptOptions
	if strings.HasPrefix(mode, "delta-") {
		ck = CkptOptions{RebaseFraction: 1, MaxChain: 64}
	}
	g, err := Open(Options{Dir: dir, Backend: disk.NewRealOpts(disk.RealOptions{SegBytes: 4096}),
		Workers: 32, CompactEvery: -1, Ckpt: ck})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	seedAndCommit(t, g, 12)
	writeExpect := func() {
		if err := os.WriteFile(filepath.Join(dir, "EXPECT"),
			[]byte(strconv.FormatInt(g.ReadEpoch(), 10)), 0o644); err != nil {
			t.Fatalf("child expect: %v", err)
		}
	}
	switch mode {
	case "abrupt":
		// Die right after the last acknowledged commit.
		writeExpect()
		os.Exit(0)
	case "delta-tmp", "delta-durable":
		// Base checkpoint, more commits, then die inside the delta swap.
		if err := g.Checkpoint(); err != nil {
			t.Fatalf("child base checkpoint: %v", err)
		}
		for k := 13; k <= 16; k++ {
			tx, _ := g.Begin()
			for _, e := range crashEdges(k) {
				tx.InsertEdge(e[0], 0, e[1], []byte{byte(k)})
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("child commit k=%d: %v", k, err)
			}
		}
		writeExpect()
		ckptCrashHook = func(s string) error {
			if s == mode {
				os.Exit(0)
			}
			return nil
		}
		g.Checkpoint()
		t.Fatalf("child survived delta checkpoint stage %q", mode)
	default:
		// mode names a checkpoint stage: die exactly there.
		writeExpect()
		ckptCrashHook = func(s string) error {
			if s == mode {
				os.Exit(0)
			}
			return nil
		}
		g.Checkpoint()
		t.Fatalf("child survived checkpoint stage %q", mode)
	}
}

// runRealCrashChild re-execs the test binary to die at the given point,
// then recovers the directory in-process and verifies nothing
// acknowledged was lost.
func runRealCrashChild(t *testing.T, mode string) {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRealCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), "LG_CRASH_CHILD="+mode, "LG_CRASH_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child (%s) failed: %v\n%s", mode, err, out)
	}
	expectRaw, err := os.ReadFile(filepath.Join(dir, "EXPECT"))
	if err != nil {
		t.Fatalf("child left no EXPECT file: %v\n%s", err, out)
	}
	want, _ := strconv.ParseInt(string(expectRaw), 10, 64)
	os.Remove(filepath.Join(dir, "EXPECT"))

	g := openBackendGraph(t, dir, disk.NewRealOpts(disk.RealOptions{SegBytes: 4096}))
	defer g.Close()
	if got := g.ReadEpoch(); got != want {
		t.Fatalf("recovered to epoch %d, want acknowledged epoch %d", got, want)
	}
	lastK := 12
	if strings.HasPrefix(mode, "delta-") {
		lastK = 16 // delta children commit past the base checkpoint
	}
	verifyEdges(t, g, lastK)
	assertNoStrayTmp(t, dir)
	tx, _ := g.Begin()
	if err := tx.InsertEdge(0, 0, 9999, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
}

func TestRealBackendProcessCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec subprocess matrix")
	}
	// abrupt: process dies with acknowledged commits in the mmap'd WAL and
	// no tail trim — recovery must parse the preallocated zero tail as EOF
	// and keep everything acknowledged. The stages kill the child inside
	// the checkpoint swap protocol at each window, full and delta paths
	// both.
	modes := append([]string{"abrupt"}, ckptStages...)
	modes = append(modes, "delta-tmp", "delta-durable")
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) { runRealCrashChild(t, mode) })
	}
}

// TestRealBackendRoundTrip is the plain (no crash) end-to-end pass on the
// real backend: write through mmap growth, checkpoint, reopen, verify.
func TestRealBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := openBackendGraph(t, dir, disk.NewRealOpts(disk.RealOptions{SegBytes: 4096}))
	seedAndCommit(t, g, 12)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail in a fresh segment.
	for k := 13; k <= 16; k++ {
		tx, _ := g.Begin()
		for _, e := range crashEdges(k) {
			tx.InsertEdge(e[0], 0, e[1], nil)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	epoch := g.ReadEpoch()
	g.Close()

	g2 := openBackendGraph(t, dir, disk.NewRealOpts(disk.RealOptions{SegBytes: 4096}))
	defer g2.Close()
	if got := g2.ReadEpoch(); got != epoch {
		t.Fatalf("recovered to epoch %d, want %d", got, epoch)
	}
	verifyEdges(t, g2, 16)
}
