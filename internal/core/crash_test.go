package core

// Crash-recovery fault injection for the WAL, built on
// iosim.Device.CrashAfter: the device dies after a byte budget, tearing
// the commit group's frame that crosses it at a device-chosen offset.
// Reopening must recover exactly the transactions whose Commit was
// acknowledged — every group before the torn frame — and nothing of the
// failed group.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"livegraph/internal/iosim"
	"livegraph/internal/wal"
)

// crashEdges is the op set of one transaction: three edge inserts on
// three different sources (srcs 0..15).
func crashEdges(k int) [][2]VertexID {
	dst := VertexID(1000 + k)
	return [][2]VertexID{
		{VertexID(k % 16), dst},
		{VertexID((k + 5) % 16), dst},
		{VertexID((k + 10) % 16), dst},
	}
}

func openCrashGraph(t *testing.T, dir string, dev *iosim.Device) *Graph {
	t.Helper()
	g, err := Open(Options{Dir: dir, Device: dev, Workers: 32, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCrashRecoveryTornAtDifferentOffsets(t *testing.T) {
	// Sweep crash budgets so the tear lands at different offsets: within
	// the first post-arm group, several groups in, mid-header, mid-record.
	for _, budget := range []int64{16, 130, 400, 777, 2000} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			dev := iosim.NewDevice(iosim.Null)
			g := openCrashGraph(t, dir, dev)

			init, _ := g.Begin()
			for i := 0; i < 16; i++ {
				init.AddVertex(nil)
			}
			if err := init.Commit(); err != nil {
				t.Fatal(err)
			}

			var acked, failed [][2]VertexID
			commitOne := func(k int) error {
				tx, err := g.Begin()
				if err != nil {
					t.Fatal(err)
				}
				ops := crashEdges(k)
				for _, e := range ops {
					if err := tx.InsertEdge(e[0], 0, e[1], []byte{byte(k)}); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					failed = append(failed, ops...)
					return err
				}
				acked = append(acked, ops...)
				return nil
			}
			for k := 1; k <= 5; k++ {
				if err := commitOne(k); err != nil {
					t.Fatalf("warmup commit: %v", err)
				}
			}
			dev.CrashAfter(budget)
			k := 5
			for {
				k++
				if k > 10000 {
					t.Fatal("crash point never reached")
				}
				if err := commitOne(k); err != nil {
					if !errors.Is(err, iosim.ErrCrashed) {
						t.Fatalf("commit failed with %v, want ErrCrashed", err)
					}
					break
				}
			}
			// The log is poisoned: nothing else commits (sticky
			// ErrLogFailed, so an acknowledged commit can never land
			// after a torn group).
			if err := commitOne(k + 1); !errors.Is(err, wal.ErrLogFailed) {
				t.Fatalf("post-crash commit = %v, want ErrLogFailed", err)
			}
			greAtCrash := g.ReadEpoch()
			g.Close()

			// "Restart" on a healthy device.
			g2 := openCrashGraph(t, dir, iosim.NewDevice(iosim.Null))
			defer g2.Close()
			if got := g2.ReadEpoch(); got != greAtCrash {
				t.Fatalf("recovered to epoch %d, want last acknowledged epoch %d", got, greAtCrash)
			}
			r, _ := g2.BeginRead()
			defer r.Commit()
			for _, e := range acked {
				if _, err := r.GetEdge(e[0], 0, e[1]); err != nil {
					t.Fatalf("acknowledged edge %v lost: %v", e, err)
				}
			}
			for _, e := range failed {
				if _, err := r.GetEdge(e[0], 0, e[1]); !errors.Is(err, ErrNotFound) {
					t.Fatalf("failed-commit edge %v resurrected (err=%v)", e, err)
				}
			}
			// The recovered graph accepts new commits.
			tx, _ := g2.Begin()
			if err := tx.InsertEdge(0, 0, 9999, nil); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("post-recovery commit: %v", err)
			}
		})
	}
}

func TestCrashRecoveryConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	dev := iosim.NewDevice(iosim.Null)
	g := openCrashGraph(t, dir, dev)

	init, _ := g.Begin()
	for i := 0; i < 16; i++ {
		init.AddVertex(nil)
	}
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var mu sync.Mutex
	var acked, failed [][2]VertexID

	dev.CrashAfter(1500)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				// Unique dst per (writer, attempt) so acked/failed sets
				// are disjoint.
				src := VertexID((w*4 + k) % 16)
				dst := VertexID(10000 + w*100000 + k)
				tx, err := g.Begin()
				if err != nil {
					return
				}
				if err := tx.InsertEdge(src, 0, dst, nil); err != nil {
					tx.Abort()
					continue
				}
				err = tx.Commit()
				mu.Lock()
				if err == nil {
					acked = append(acked, [2]VertexID{src, dst})
				} else if !IsRetryable(err) {
					// ErrCrashed for the torn group, sticky
					// ErrLogFailed afterwards: all must stay absent.
					failed = append(failed, [2]VertexID{src, dst})
				}
				mu.Unlock()
				if err != nil && !IsRetryable(err) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(acked) == 0 || len(failed) == 0 {
		t.Fatalf("weak run: %d acked, %d failed commits", len(acked), len(failed))
	}
	greAtCrash := g.ReadEpoch()
	g.Close()

	g2 := openCrashGraph(t, dir, iosim.NewDevice(iosim.Null))
	defer g2.Close()
	if got := g2.ReadEpoch(); got != greAtCrash {
		t.Fatalf("recovered to epoch %d, want %d", got, greAtCrash)
	}
	r, _ := g2.BeginRead()
	defer r.Commit()
	for _, e := range acked {
		if _, err := r.GetEdge(e[0], 0, e[1]); err != nil {
			t.Fatalf("acknowledged edge %v lost: %v", e, err)
		}
	}
	for _, e := range failed {
		if _, err := r.GetEdge(e[0], 0, e[1]); !errors.Is(err, ErrNotFound) {
			t.Fatalf("failed-commit edge %v resurrected (err=%v)", e, err)
		}
	}
}

func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	// Crash in the segment after a checkpoint: recovery must stack the
	// checkpoint image, the fully durable tail groups, and nothing of the
	// torn group.
	dir := t.TempDir()
	dev := iosim.NewDevice(iosim.Null)
	g := openCrashGraph(t, dir, dev)

	init, _ := g.Begin()
	for i := 0; i < 16; i++ {
		init.AddVertex([]byte{byte(i)})
	}
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		tx, _ := g.Begin()
		for _, e := range crashEdges(k) {
			tx.InsertEdge(e[0], 0, e[1], nil)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var acked, failed [][2]VertexID
	dev.CrashAfter(300)
	for k := 5; ; k++ {
		if k > 10000 {
			t.Fatal("crash point never reached")
		}
		tx, _ := g.Begin()
		ops := crashEdges(k)
		for _, e := range ops {
			tx.InsertEdge(e[0], 0, e[1], nil)
		}
		if err := tx.Commit(); err != nil {
			if !errors.Is(err, iosim.ErrCrashed) {
				t.Fatalf("commit failed with %v", err)
			}
			failed = ops
			break
		}
		acked = append(acked, ops...)
	}
	greAtCrash := g.ReadEpoch()
	g.Close()

	g2 := openCrashGraph(t, dir, iosim.NewDevice(iosim.Null))
	defer g2.Close()
	if got := g2.ReadEpoch(); got != greAtCrash {
		t.Fatalf("recovered to epoch %d, want %d", got, greAtCrash)
	}
	r, _ := g2.BeginRead()
	defer r.Commit()
	// Checkpointed state.
	for k := 1; k <= 4; k++ {
		for _, e := range crashEdges(k) {
			if _, err := r.GetEdge(e[0], 0, e[1]); err != nil {
				t.Fatalf("checkpointed edge %v lost: %v", e, err)
			}
		}
	}
	for _, e := range acked {
		if _, err := r.GetEdge(e[0], 0, e[1]); err != nil {
			t.Fatalf("acknowledged tail edge %v lost: %v", e, err)
		}
	}
	for _, e := range failed {
		if _, err := r.GetEdge(e[0], 0, e[1]); !errors.Is(err, ErrNotFound) {
			t.Fatalf("failed-commit edge %v resurrected (err=%v)", e, err)
		}
	}
}

func TestCheckpointRecoversFailedLog(t *testing.T) {
	// After a persist failure the log is sticky-failed and every commit
	// errors. Checkpoint rotates to a fresh segment with the snapshot as
	// recovery root, clearing the condition without a restart.
	dir := t.TempDir()
	dev := iosim.NewDevice(iosim.Null)
	g := openCrashGraph(t, dir, dev)

	init, _ := g.Begin()
	for i := 0; i < 16; i++ {
		init.AddVertex(nil)
	}
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}
	var acked [][2]VertexID
	dev.CrashAfter(200)
	for k := 1; ; k++ {
		if k > 10000 {
			t.Fatal("crash point never reached")
		}
		tx, _ := g.Begin()
		ops := crashEdges(k)
		for _, e := range ops {
			tx.InsertEdge(e[0], 0, e[1], nil)
		}
		if err := tx.Commit(); err != nil {
			break
		}
		acked = append(acked, ops...)
	}
	// Sticky failure: still erroring.
	tx, _ := g.Begin()
	tx.InsertEdge(0, 0, 7777, nil)
	if err := tx.Commit(); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("commit on failed log = %v, want ErrLogFailed", err)
	}

	// Device heals; checkpoint rotates past the torn segment.
	dev.Revive()
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, _ = g.Begin()
	if err := tx.InsertEdge(0, 0, 8888, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after checkpoint recovery: %v", err)
	}
	g.Close()

	g2 := openCrashGraph(t, dir, iosim.NewDevice(iosim.Null))
	defer g2.Close()
	r, _ := g2.BeginRead()
	defer r.Commit()
	for _, e := range acked {
		if _, err := r.GetEdge(e[0], 0, e[1]); err != nil {
			t.Fatalf("acknowledged edge %v lost across checkpoint recovery: %v", e, err)
		}
	}
	if _, err := r.GetEdge(0, 0, 7777); !errors.Is(err, ErrNotFound) {
		t.Fatal("failed-log commit resurrected")
	}
	if _, err := r.GetEdge(0, 0, 8888); err != nil {
		t.Fatalf("post-recovery edge lost: %v", err)
	}
}
