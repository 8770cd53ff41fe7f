package maint

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDirtySetMarkDrain(t *testing.T) {
	d := NewDirtySet(4)
	d.Mark(1, 10)
	d.Mark(2, 20)
	d.Mark(1, 5) // accumulate onto an existing entry
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.DeadBytes() != 35 {
		t.Fatalf("DeadBytes = %d, want 35", d.DeadBytes())
	}
	got := d.Drain(10, nil)
	if len(got) != 2 {
		t.Fatalf("drained %d entries, want 2", len(got))
	}
	weights := map[int64]int64{}
	for _, e := range got {
		weights[e.ID] = e.Dead
	}
	if weights[1] != 15 || weights[2] != 20 {
		t.Fatalf("drained weights %v", weights)
	}
	if d.Len() != 0 || d.DeadBytes() != 0 {
		t.Fatalf("set not empty after drain: len=%d dead=%d", d.Len(), d.DeadBytes())
	}
	// Re-marking a drained entry restores count and estimate.
	d.Mark(got[0].ID, got[0].Dead)
	if d.Len() != 1 || d.DeadBytes() != got[0].Dead {
		t.Fatal("re-mark lost the estimate")
	}
}

func TestDirtySetBoundedDrainRotates(t *testing.T) {
	d := NewDirtySet(8)
	for i := int64(0); i < 100; i++ {
		d.Mark(i, 1)
	}
	seen := map[int64]bool{}
	// Bounded drains must eventually service every shard.
	for i := 0; i < 40 && d.Len() > 0; i++ {
		for _, e := range d.Drain(5, nil) {
			if seen[e.ID] {
				t.Fatalf("vertex %d drained twice", e.ID)
			}
			seen[e.ID] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("drained %d of 100", len(seen))
	}
}

// TestDrainedDirtySetReleasesMaps: a Go map never shrinks, so a set that
// held a bulk load's worth of vertices would keep its buckets after every
// one was drained. Drain gives an emptied shard a fresh map, and the heap
// returns to what it was before the marks.
func TestDrainedDirtySetReleasesMaps(t *testing.T) {
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	d := NewDirtySet(0)
	before := heap()
	for i := int64(0); i < 100_000; i++ {
		d.Mark(i, 1)
	}
	marked := heap()
	func() {
		buf := make([]Dirty, 0, 1024)
		for d.Len() > 0 {
			buf = d.Drain(cap(buf), buf[:0])
		}
	}()
	after := heap()
	t.Logf("heap %d B before the marks, %d marked, %d drained", before, marked, after)
	if grown := after - before; grown > 256<<10 {
		t.Errorf("drained set still holds %d KiB more than before the marks, bound 256 KiB", grown>>10)
	}
	runtime.KeepAlive(d)
}

func TestDirtySetConcurrent(t *testing.T) {
	d := NewDirtySet(0)
	var wg sync.WaitGroup
	seen := map[int64]bool{} // drainer-goroutine only
	var seenMu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				d.Mark(int64(w*10000+i%1000), 8)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]Dirty, 0, 64)
		for i := 0; i < 2000; i++ {
			buf = d.Drain(64, buf[:0])
			seenMu.Lock()
			for _, e := range buf {
				seen[e.ID] = true
			}
			seenMu.Unlock()
		}
	}()
	wg.Wait()
	// A vertex may be drained, re-marked by a concurrent writer, and
	// drained again — but the distinct population is fixed, and once
	// writers stop, a final drain must empty the set exactly.
	for _, e := range d.Drain(int(d.Len()), nil) {
		seen[e.ID] = true
	}
	if len(seen) != 4*1000 {
		t.Fatalf("saw %d distinct vertices, want 4000", len(seen))
	}
	if d.Len() != 0 || d.DeadBytes() != 0 {
		t.Fatalf("residual len=%d dead=%d", d.Len(), d.DeadBytes())
	}
}

// fakeRunner is a Runner whose backlog is a counter; it flags overlapping
// MaintSlice calls (the single-flight property under test).
type fakeRunner struct {
	t        *testing.T
	backlog  atomic.Int64
	dead     atomic.Int64
	perSlice int64 // max vertices one slice actually processes
	inSlice  atomic.Bool
	endPass  atomic.Int64
}

func (r *fakeRunner) MaintSlice(maxVertices int, deadline time.Time) (int, bool, bool) {
	if !r.inSlice.CompareAndSwap(false, true) {
		r.t.Error("overlapping MaintSlice calls")
	}
	defer r.inSlice.Store(false)
	n := int64(maxVertices)
	cut := false
	if r.perSlice > 0 && n > r.perSlice {
		n = r.perSlice
		cut = true // the fake's stand-in for a deadline cut
	}
	for {
		cur := r.backlog.Load()
		take := n
		if take > cur {
			take = cur
		}
		if r.backlog.CompareAndSwap(cur, cur-take) {
			if cur-take == 0 {
				r.dead.Store(0)
			}
			return int(take), cut && cur-take > 0, cur-take > 0
		}
	}
}

func (r *fakeRunner) MaintEndPass() { r.endPass.Add(1) }

func (r *fakeRunner) MaintPressure() (int64, int64) {
	return r.backlog.Load(), r.dead.Load()
}

// startSched starts a triggered scheduler over r; shorten, if non-nil,
// adjusts its unexported tuning before Start.
func startSched(t *testing.T, r Runner, shorten func(*Scheduler)) (*Scheduler, *Stats) {
	t.Helper()
	var stats Stats
	s := New(r, &stats, true)
	if shorten != nil {
		shorten(s)
	}
	s.Start()
	t.Cleanup(s.Close)
	return s, &stats
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerPressureTrigger(t *testing.T) {
	r := &fakeRunner{t: t}
	s, stats := startSched(t, r, nil)
	r.backlog.Store(50) // below the trigger and below the floor's 1/8
	s.Notify()          // below the trigger: filtered out
	time.Sleep(20 * time.Millisecond)
	if stats.Passes.Load() != 0 {
		t.Fatal("pass ran below the dirty trigger")
	}
	r.backlog.Store(dirtyTrigger + 100)
	s.Notify()
	waitFor(t, "pressure-triggered pass", func() bool { return stats.Passes.Load() >= 1 })
	if r.backlog.Load() != 0 {
		t.Fatalf("backlog %d after pass", r.backlog.Load())
	}
	if r.endPass.Load() < 1 {
		t.Fatal("EndPass not called")
	}
}

func TestSchedulerDeadBytesTrigger(t *testing.T) {
	r := &fakeRunner{t: t}
	s, stats := startSched(t, r, nil)
	r.backlog.Store(10)
	r.dead.Store(deadBytesTrigger)
	s.Notify()
	waitFor(t, "dead-bytes-triggered pass", func() bool { return stats.Passes.Load() >= 1 })
}

func TestSchedulerWallClockFloor(t *testing.T) {
	r := &fakeRunner{t: t}
	// Backlog above 1/8 of the trigger but never notified: the interval
	// floor alone must start the pass.
	r.backlog.Store(dirtyTrigger / 4)
	_, stats := startSched(t, r, func(s *Scheduler) { s.interval = 10 * time.Millisecond })
	waitFor(t, "floor-triggered pass", func() bool { return stats.Passes.Load() >= 1 })
}

func TestSchedulerBelowFloorIdles(t *testing.T) {
	r := &fakeRunner{t: t}
	// Backlog below 1/8 of both thresholds: the floor leaves it alone.
	r.backlog.Store(10)
	r.dead.Store(10)
	_, stats := startSched(t, r, func(s *Scheduler) { s.interval = 5 * time.Millisecond })
	time.Sleep(50 * time.Millisecond)
	if n := stats.Passes.Load(); n != 0 {
		t.Fatalf("%d passes ran below the floor threshold", n)
	}
}

// TestSchedulerWithoutTriggers: a scheduler built without triggers starts
// no pass on pressure, a kick or its floor, and still runs RunPass.
func TestSchedulerWithoutTriggers(t *testing.T) {
	r := &fakeRunner{t: t}
	r.backlog.Store(dirtyTrigger + 100)
	r.dead.Store(deadBytesTrigger)
	var stats Stats
	s := New(r, &stats, false)
	s.interval = 5 * time.Millisecond
	s.Start()
	t.Cleanup(s.Close)
	s.Notify()
	s.Kick()
	time.Sleep(50 * time.Millisecond)
	if n := stats.Passes.Load(); n != 0 {
		t.Fatalf("%d passes ran with the triggers off", n)
	}
	s.RunPass()
	if stats.Passes.Load() != 1 || r.backlog.Load() != 0 {
		t.Fatalf("RunPass: %d passes, backlog %d", stats.Passes.Load(), r.backlog.Load())
	}
}

func TestRunPassDrainsAndMerges(t *testing.T) {
	r := &fakeRunner{t: t, perSlice: 10}
	s, stats := startSched(t, r, nil)
	r.backlog.Store(500)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.RunPass() // all callers merge into the in-flight pass
		}()
	}
	wg.Wait()
	if r.backlog.Load() != 0 {
		t.Fatalf("backlog %d after RunPass", r.backlog.Load())
	}
	if stats.Passes.Load() == 0 {
		t.Fatal("no pass recorded")
	}
	// The fake reports budget cuts (perSlice < sliceVertices with work
	// remaining); those must land in the yielded counter.
	if stats.SlicesYielded.Load() == 0 {
		t.Fatal("no yielded slices recorded")
	}
}

func TestSchedulerCloseStopsAndUnblocks(t *testing.T) {
	r := &fakeRunner{t: t}
	var stats Stats
	s := New(r, &stats, true)
	s.Start()
	s.Close()
	done := make(chan struct{})
	go func() { s.RunPass(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("RunPass blocked on a closed scheduler")
	}
	s.Close() // idempotent
}
