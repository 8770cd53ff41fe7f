// Package maint is the background maintenance engine: a budgeted,
// pressure-triggered scheduler that runs storage maintenance (vertex-wise
// compaction and epoch-based block reclamation) off the commit path.
//
// The paper's storage claim (§6) is that maintenance is vertex-wise — no
// LSM-style multi-file merges ever run — so a pass can stop after any
// vertex. The scheduler leans on exactly that property: work is issued in
// slices of at most 256 vertices (sliceVertices) bounded by a soft 200µs
// wall-clock cap (sliceBudget), with a 400µs pause (yieldPause) between
// slices, so foreground commit latency stays flat no matter how large the
// backlog grows. Passes start when pressure crosses a trigger (2048 dirty
// vertices or 4MiB of estimated dead bytes) and at a 250ms wall-clock
// floor (floorInterval) once 1/8 of either threshold accumulates — a
// trickle of writes, or a replica applying its primary's stream, still
// gets reclaimed on a bounded cadence. The values are constants; a graph
// that wants no automatic maintenance builds its scheduler without
// triggers and passes run only on request.
//
// The scheduler owns no storage knowledge: the engine hands it a Runner
// (implemented by core.Graph) and the loop decides only when and how much.
// All passes — background, pressure-forced, and synchronous requests via
// RunPass — execute on the one scheduler goroutine, which is what makes a
// synchronous CompactNow a single-flight façade with no double-pass race
// against the trigger path.
package maint

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"livegraph/internal/obs"
)

// Stats tracks the maintenance engine (budgeted, morsel-parallel
// compaction + epoch-based reclamation): the scheduler counts passes and
// slices, the engine's compaction slices count what they moved, and
// /metrics and /v1/stats read both through Register. All fields are
// atomic; the zero value is ready.
type Stats struct {
	Passes        atomic.Int64 // maintenance passes completed (dirty set drained)
	Slices        atomic.Int64 // budgeted slices executed
	SlicesYielded atomic.Int64 // slices that hit their time budget and yielded work back

	VerticesCompacted atomic.Int64 // dirty vertices compacted
	EntriesScanned    atomic.Int64 // TEL entries examined
	EntriesCopied     atomic.Int64 // entries copied into right-sized blocks
	EntriesDead       atomic.Int64 // entries dropped as invisible to every reader
	VersionsPruned    atomic.Int64 // vertex versions cut from version chains

	BlocksReclaimed atomic.Int64 // deferred blocks recycled past pinned snapshots
	BytesReclaimed  atomic.Int64 // bytes those blocks returned to the free lists

	PassNanos     atomic.Int64 // total wall time spent inside passes
	LastPassNanos atomic.Int64 // duration of the most recent pass
}

// Register exposes the counters as the lg_maint_* instruments of r.
func (s *Stats) Register(r *obs.Registry) {
	ctr := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	ctr("lg_maint_passes_total", "maintenance passes completed", &s.Passes)
	ctr("lg_maint_slices_total", "budgeted maintenance slices executed", &s.Slices)
	ctr("lg_maint_slices_yielded_total", "slices that hit their budget and yielded", &s.SlicesYielded)
	ctr("lg_maint_vertices_compacted_total", "dirty vertices compacted", &s.VerticesCompacted)
	ctr("lg_maint_entries_scanned_total", "TEL entries examined by maintenance", &s.EntriesScanned)
	ctr("lg_maint_entries_copied_total", "entries copied into right-sized blocks", &s.EntriesCopied)
	ctr("lg_maint_entries_dead_total", "entries dropped as invisible to every reader", &s.EntriesDead)
	ctr("lg_maint_versions_pruned_total", "vertex versions cut from version chains", &s.VersionsPruned)
	ctr("lg_maint_blocks_reclaimed_total", "deferred blocks recycled past pinned snapshots", &s.BlocksReclaimed)
	ctr("lg_maint_bytes_reclaimed_total", "bytes returned to the free lists", &s.BytesReclaimed)
	r.CounterFunc("lg_maint_pass_seconds_total", "wall time spent inside maintenance passes",
		func() float64 { return float64(s.PassNanos.Load()) / 1e9 })
	r.GaugeFunc("lg_maint_last_pass_seconds", "duration of the most recent maintenance pass",
		func() float64 { return float64(s.LastPassNanos.Load()) / 1e9 })
}

// The scheduler's tuning. They are constants: no caller has needed other
// values, and the engine's behaviour is easier to reason about with one
// set.
const (
	// sliceVertices caps how many dirty vertices one slice may compact
	// before yielding.
	sliceVertices = 256

	// sliceBudget is the soft wall-clock cap per background slice: a
	// slice that exceeds it stops claiming vertices and returns the rest
	// to the dirty set.
	sliceBudget = 200 * time.Microsecond

	// yieldPause is the pause between slices of one background pass —
	// the breathing room that keeps p99 commit latency flat. It is
	// deliberately 2x the slice budget: under a sustained backlog
	// maintenance settles at a ~1/3 duty cycle, so on few-core hosts the
	// foreground keeps most of the machine. Synchronous passes (RunPass)
	// skip it.
	yieldPause = 400 * time.Microsecond

	// floorInterval is the wall-clock floor: how often the scheduler
	// checks for work even when no trigger fired. Backlog at or above
	// 1/8 of either trigger threshold starts a pass on this cadence, so
	// trickle loads (a replica applying a slow primary, a mostly-read
	// workload) still reclaim garbage with bounded staleness.
	floorInterval = 250 * time.Millisecond

	// dirtyTrigger starts a pass when the dirty set holds at least this
	// many vertices.
	dirtyTrigger = 2048

	// deadBytesTrigger starts a pass when the dead-bytes estimate
	// reaches this many bytes.
	deadBytesTrigger = 4 << 20

	// maxWorkers caps the morsel-parallel fan-out within one slice. New
	// takes min(maxWorkers, max(1, GOMAXPROCS/2)): maintenance should
	// overlap the foreground, not displace it.
	maxWorkers = 4
)

// Runner is the engine-side surface the scheduler drives; core.Graph
// implements it.
type Runner interface {
	// MaintSlice compacts up to maxVertices dirty vertices, stopping
	// early (and returning unfinished work to the dirty set) once
	// deadline passes — but always making progress on at least some
	// work if any exists. It reports how many vertices it processed,
	// whether the deadline actually cut the slice short, and whether
	// dirty work remains.
	MaintSlice(maxVertices int, deadline time.Time) (processed int, cut, more bool)

	// MaintEndPass runs pass-boundary work: reclaiming deferred blocks
	// whose readers have moved on, and pass-level accounting.
	MaintEndPass()

	// MaintPressure returns the current dirty-set size and dead-bytes
	// estimate.
	MaintPressure() (dirty, deadBytes int64)
}

// Scheduler runs maintenance passes on one background goroutine.
type Scheduler struct {
	r        Runner
	stats    *Stats
	triggers bool          // false: only RunPass starts a pass
	workers  int           // morsel-parallel fan-out within one slice
	interval time.Duration // floorInterval; this package's tests shorten it

	wake chan struct{}      // coalesced "pressure may have crossed a trigger"
	reqs chan chan struct{} // synchronous pass requests (RunPass)
	stop chan struct{}
	done chan struct{}

	closeOnce sync.Once
}

// New creates a scheduler over r recording into stats (which must be
// non-nil). With triggers false, Notify, Kick and the wall-clock floor
// start nothing, and passes run only on RunPass. Call Start to launch it.
func New(r Runner, stats *Stats, triggers bool) *Scheduler {
	return &Scheduler{
		r:        r,
		stats:    stats,
		triggers: triggers,
		workers:  min(maxWorkers, max(1, runtime.GOMAXPROCS(0)/2)),
		interval: floorInterval,
		wake:     make(chan struct{}, 1),
		reqs:     make(chan chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Workers returns how many workers one slice fans its vertices across.
func (s *Scheduler) Workers() int { return s.workers }

// Start launches the scheduler goroutine.
func (s *Scheduler) Start() { go s.loop() }

// Close stops the scheduler and waits for the in-flight slice, if any, to
// finish. Unfinished work stays in the dirty set; it is not an error to
// close with a backlog (the next Open's maintenance will pick it up, or
// the graph is being discarded).
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Notify tells the scheduler pressure changed. It is called from the
// write path on every dirty mark, so it must stay cheap: two atomic loads
// and, only when a trigger is crossed, one non-blocking channel send.
func (s *Scheduler) Notify() {
	if dirty, dead := s.r.MaintPressure(); dirty >= dirtyTrigger || dead >= deadBytesTrigger {
		s.Kick()
	}
}

// Kick wakes the scheduler regardless of pressure (the commit-count
// trigger, and tests that want passes racing writers; pressure filtering
// is Notify's job). A scheduler without triggers ignores it.
func (s *Scheduler) Kick() {
	if !s.triggers {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// RunPass runs one maintenance pass — drain the dirty backlog observed
// at the request, then reclaim — and returns when it completes. The pass
// executes on the scheduler goroutine (single-flight with background
// slices); if one is already mid-pass, this request merges into it, the
// pass re-aims at the current backlog and the remainder runs without
// yields. Returns immediately if the scheduler is closed.
func (s *Scheduler) RunPass() {
	req := make(chan struct{})
	select {
	case s.reqs <- req:
	case <-s.done:
		return
	}
	select {
	case <-req:
	case <-s.done:
	}
}

func (s *Scheduler) loop() {
	defer close(s.done)
	var floor <-chan time.Time
	if s.triggers {
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		floor = tick.C
	}
	for {
		select {
		case <-s.stop:
			return
		case req := <-s.reqs:
			s.pass([]chan struct{}{req})
		case <-s.wake:
			if dirty, _ := s.r.MaintPressure(); dirty > 0 {
				s.pass(nil)
			}
		case <-floor:
			// Wall-clock floor: backlog that never crosses a trigger
			// still gets maintained on this cadence, once it reaches a
			// fraction (1/8) of the trigger thresholds. The fraction
			// bounds steady-state garbage under trickle loads without
			// making background passes observable to workloads too
			// small to have meaningful garbage at all.
			dirty, dead := s.r.MaintPressure()
			if dirty >= (dirtyTrigger+7)/8 || dead >= (deadBytesTrigger+7)/8 {
				s.pass(nil)
			}
		}
	}
}

// pass drains the dirty set in budgeted slices. Every pass is bounded:
// it aims at the backlog observed when it started (extended to the
// current backlog whenever a synchronous requester merges in), so under
// sustained churn passes terminate — running end-of-pass reclamation and
// counting, with fresh dirt simply triggering the next pass — and
// CompactNow can never be pinned down by writers that dirty vertices as
// fast as the drain. waiters are synchronous requesters to release at
// the pass boundary; their presence (or arrival mid-pass) switches the
// pass to urgent mode, which drops the inter-slice yield and deadline so
// sync callers are not paced like background work.
func (s *Scheduler) pass(waiters []chan struct{}) {
	urgent := len(waiters) > 0
	start := time.Now()
	budget, _ := s.r.MaintPressure() // vertices this pass aims to drain
	for {
		// Absorb sync requests that landed mid-pass: they merge into
		// this pass instead of scheduling a second one, and the pass
		// re-aims at the backlog as they see it.
		select {
		case req := <-s.reqs:
			waiters = append(waiters, req)
			urgent = true
			if d, _ := s.r.MaintPressure(); d > budget {
				budget = d
			}
		default:
		}

		deadline := time.Time{}
		if !urgent {
			deadline = time.Now().Add(sliceBudget)
		}
		processed, cut, more := s.r.MaintSlice(sliceVertices, deadline)
		s.stats.Slices.Add(1)
		budget -= int64(processed)
		if cut {
			s.stats.SlicesYielded.Add(1)
		}
		if !more || budget <= 0 {
			break
		}
		if !urgent {
			select {
			case <-s.stop:
				// Shutdown mid-pass: leave the backlog in the dirty
				// set and let the loop's select observe stop. Waiters
				// only exist in urgent mode (which never yields), but
				// release any defensively.
				for _, w := range waiters {
					close(w)
				}
				s.finishPass(start)
				return
			case <-time.After(yieldPause):
			}
		}
	}
	s.r.MaintEndPass()
	s.finishPass(start)
	s.stats.Passes.Add(1)
	for _, w := range waiters {
		close(w)
	}
}

func (s *Scheduler) finishPass(start time.Time) {
	d := time.Since(start).Nanoseconds()
	s.stats.PassNanos.Add(d)
	s.stats.LastPassNanos.Store(d)
}
