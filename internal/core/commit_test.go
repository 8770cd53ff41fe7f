package core

// Tests of the commit path: what one commit allocates, what Commit and
// CommitCtx cost against each other, and the three CommitCtx outcomes under
// contention on a slow log.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"livegraph/internal/disk"
	"livegraph/internal/iosim"
)

// writePathAllocs is what a one-edge upsert transaction allocates from
// BeginCtx to CommitCtx on a volatile graph: the Tx, its result channel,
// the held-stripe and list maps, the list's write handle and its appended
// and invalidated index slices.
const writePathAllocs = 10

// TestWritePathAllocs pins the allocation count of a one-edge AddEdge
// upsert, BeginCtx → CommitCtx, on a volatile graph whose list has room
// enough that no run upgrades its block.
func TestWritePathAllocs(t *testing.T) {
	g, err := Open(Options{Workers: 4, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	props := make([]byte, 8)
	// A list filled by the transaction that creates it is placed in a
	// block it fills. Grow it one edge a transaction instead, until an
	// upgrade past 300 entries: the block has just at least doubled, so
	// it has room for the ~101 entries the runs append.
	for i := 0; ; i++ {
		up := g.stats.Upgrades.Load()
		mustCommit(t, g, func(tx *Tx) {
			if err := tx.InsertEdge(1, 0, VertexID(i+2), props); err != nil {
				t.Fatal(err)
			}
		})
		if i >= 300 && g.stats.Upgrades.Load() > up {
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	upgrades := g.stats.Upgrades.Load()
	n := testing.AllocsPerRun(100, func() {
		tx, err := g.BeginCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.AddEdge(1, 0, 2, props); err != nil {
			t.Fatal(err)
		}
		if err := tx.CommitCtx(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if up := g.stats.Upgrades.Load() - upgrades; up != 0 {
		t.Fatalf("the list upgraded %d times during the runs; pre-size it further", up)
	}
	if n > writePathAllocs {
		t.Errorf("one-edge commit: %v allocations, want at most %d", n, writePathAllocs)
	}
}

// BenchmarkCommit commits one edge per transaction on a volatile graph
// through each entry point. The three must cost the same: Commit is
// CommitCtx without a deadline, and a cancellable context only adds a case
// to the wait.
func BenchmarkCommit(b *testing.B) {
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name   string
		commit func(*Tx) error
	}{
		{"Commit", (*Tx).Commit},
		{"CommitCtx/background", func(tx *Tx) error { return tx.CommitCtx(context.Background()) }},
		{"CommitCtx/cancellable", func(tx *Tx) error { return tx.CommitCtx(cancellable) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := openMem(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := g.Begin()
				if err != nil {
					b.Fatal(err)
				}
				if err := tx.InsertEdge(VertexID(i%1024), 0, VertexID(i), nil); err != nil {
					b.Fatal(err)
				}
				if err := c.commit(tx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCommitCtxContention: many goroutines commit with random deadlines
// onto a log whose fsync is slow enough that some deadlines fire while the
// transaction is queued and some while its group is mid-fsync. Once the
// graph is quiet, every acknowledged commit is visible, every withdrawn one
// is not, every in-doubt one settled one way, the counters account for
// every attempt, and no goroutine outlives Close.
//
// Each worker writes its own vertex, so the only holder its next attempt
// can wait on is its own previous group, in doubt and still mid-fsync. On a
// loaded host that fsync outlasts the default 50ms lock timeout; the long
// timeout makes the next attempt wait for the group to settle instead.
func TestCommitCtxContention(t *testing.T) {
	baseline := runtime.NumGoroutine()
	slow := iosim.NewDevice(iosim.Profile{Name: "Slow", WriteLatency: 3 * time.Millisecond})
	g, err := Open(Options{Dir: t.TempDir(), Backend: disk.NewSim(slow, disk.NewReal()), CompactEvery: -1, LockTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const workers, attempts = 8, 20
	type outcome int
	const (
		committed outcome = iota
		withdrawn
		unknown
	)
	results := make([][attempts]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < attempts; i++ {
				tx, err := g.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.InsertEdge(VertexID(w), 0, VertexID(i), nil); err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(8000))*time.Microsecond)
				err = tx.CommitCtx(ctx)
				cancel()
				switch {
				case err == nil:
					results[w][i] = committed
				case errors.Is(err, ErrCommitOutcomeUnknown) && errors.Is(err, context.DeadlineExceeded):
					results[w][i] = unknown
				case errors.Is(err, context.DeadlineExceeded):
					results[w][i] = withdrawn
				default:
					t.Errorf("worker %d attempt %d: CommitCtx err = %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		g.Close()
		return
	}

	// Quiet: every detached verdict has been counted.
	deadline := time.Now().Add(10 * time.Second)
	for g.stats.Commits.Load()+g.stats.Aborts.Load() != workers*attempts {
		if time.Now().After(deadline) {
			t.Fatalf("commits %d + aborts %d never reached %d attempts",
				g.stats.Commits.Load(), g.stats.Aborts.Load(), workers*attempts)
		}
		time.Sleep(time.Millisecond)
	}

	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var counts [3]int
	visible := 0
	for w := 0; w < workers; w++ {
		for i := 0; i < attempts; i++ {
			_, err := snap.GetEdge(VertexID(w), 0, VertexID(i))
			seen := err == nil
			if seen {
				visible++
			}
			o := results[w][i]
			counts[o]++
			switch {
			case o == committed && !seen:
				t.Errorf("worker %d attempt %d: acknowledged commit is not visible", w, i)
			case o == withdrawn && seen:
				t.Errorf("worker %d attempt %d: withdrawn commit is visible", w, i)
			}
		}
	}
	snap.Release()
	if c := g.stats.Commits.Load(); int64(visible) != c {
		t.Errorf("%d edges visible, but %d commits counted", visible, c)
	}
	t.Logf("committed %d, withdrawn %d, unknown %d", counts[committed], counts[withdrawn], counts[unknown])

	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
