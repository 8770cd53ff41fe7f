package core

// The engine side of the background maintenance subsystem (internal/maint):
// budgeted, morsel-parallel compaction slices over the striped dirty set.
// The scheduler decides when and how much; this file does the storage work —
// drain a bounded chunk of dirty vertices, fan it across workers in morsels
// (each worker with a private allocation handle, holding one vertex lock at
// a time exactly like the synchronous pass always has), and at pass
// boundaries reclaim deferred blocks whose readers have moved on.

import (
	"context"
	"time"

	"livegraph/internal/maint"
	"livegraph/internal/morsel"
	"livegraph/internal/obs"
)

// MaintOptions configures the background maintenance engine.
type MaintOptions struct {
	// SliceVertices caps how many dirty vertices one background slice
	// compacts before yielding (default 256).
	SliceVertices int

	// SliceBudget is the soft wall-clock cap per background slice
	// (default 500µs).
	SliceBudget time.Duration

	// Yield is the pause between slices of one background pass
	// (default 200µs).
	Yield time.Duration

	// Interval is the wall-clock floor between pressure checks
	// (default 250ms).
	Interval time.Duration

	// DirtyTrigger starts a pass when this many vertices are dirty
	// (default 2048).
	DirtyTrigger int64

	// DeadBytesTrigger starts a pass when the dead-bytes estimate
	// reaches this (default 4MiB).
	DeadBytesTrigger int64

	// Workers is the morsel-parallel fan-out within one slice
	// (default min(4, max(1, GOMAXPROCS/2))).
	Workers int
}

func (o MaintOptions) config() maint.Config {
	return maint.Config{
		SliceVertices:    o.SliceVertices,
		SliceBudget:      o.SliceBudget,
		Yield:            o.Yield,
		Interval:         o.Interval,
		DirtyTrigger:     o.DirtyTrigger,
		DeadBytesTrigger: o.DeadBytesTrigger,
		Workers:          o.Workers,
	}
}

// maintMorselSize is the morsel width for fanning a drained chunk across
// workers. Small: one hub vertex can hide a huge TEL, and narrow morsels
// let the budget deadline cut a slice with little overshoot.
const maintMorselSize = 16

// MaintStats returns the live maintenance counters (passes, slices,
// entries scanned/copied/dead, bytes reclaimed, pass durations).
func (g *Graph) MaintStats() *maint.Stats { return &g.maintStats }

// MaintPressure returns the current maintenance backlog: dirty vertices
// awaiting compaction and the accumulated dead-bytes estimate. Zeroes
// mean maintenance is fully caught up.
func (g *Graph) MaintPressure() (dirty, deadBytes int64) {
	return g.dirty.Len(), g.dirty.DeadBytes()
}

// maintRunner adapts Graph to maint.Runner without exporting the slice
// machinery on Graph itself.
type maintRunner struct{ g *Graph }

func (r maintRunner) MaintPressure() (int64, int64) { return r.g.MaintPressure() }

// MaintSlice drains up to maxVertices dirty vertices and compacts them
// morsel-parallel, stopping early once deadline (if non-zero) passes and
// returning unprocessed vertices to the dirty set. cut reports whether
// the deadline actually cut the slice short.
func (r maintRunner) MaintSlice(maxVertices int, deadline time.Time) (processed int, cut, more bool) {
	g := r.g
	t0 := time.Now()
	g.maintBuf = g.dirty.Drain(maxVertices, g.maintBuf[:0])
	chunk := g.maintBuf
	if len(chunk) > 0 {
		processed = g.compactChunk(chunk, deadline)
	}
	d := time.Since(t0)
	g.ob.maintSlice.Record(d)
	g.ob.tracer.SlowOp("maint.slice", d,
		obs.Int("drained", int64(len(chunk))), obs.Int("processed", int64(processed)))
	return processed, processed < len(chunk), g.dirty.Len() > 0
}

// MaintEndPass runs pass-boundary work: recycle deferred blocks no pinned
// snapshot can still see, and count the pass.
func (r maintRunner) MaintEndPass() {
	g := r.g
	blocks, words := g.alloc.Reclaim(g.readers.MinActive(g.epochs.ReadEpoch()))
	if blocks > 0 {
		g.maintStats.BlocksReclaimed.Add(int64(blocks))
		g.maintStats.BytesReclaimed.Add(words * 8)
	}
	g.stats.Compactions.Add(1)
}

// compactChunk fans chunk across the maintenance workers in morsels, each
// worker allocating through its own storage handle; a hub vertex with a
// huge TEL stalls one worker while the rest drain the remainder. Returns
// how many vertices were compacted; the rest (deadline cut) are re-marked
// with their dead-bytes estimates intact.
func (g *Graph) compactChunk(chunk []maint.Dirty, deadline time.Time) int {
	// visibleFloor: every ongoing transaction reads at >= MinActive and
	// every future one at >= GRE, so a version invalidated at or before
	// the floor is dead for everyone. HistoryRetention lowers the floor
	// so temporal snapshots (SnapshotAt) can still read recent history.
	floor := g.readers.MinActive(g.epochs.ReadEpoch()) - g.opts.HistoryRetention
	// The body only ever asks to stop, so Run has no error to return.
	//lglint:ignore ctxprop a slice is bounded by its deadline, not a caller: the scheduler owns no context and nothing blocks on this one
	_ = morsel.Run(context.Background(), len(chunk), maintMorselSize, g.maintWorkers, func(w, m, lo, hi int) error {
		// Morsel 0 is compacted unconditionally: a slice must make
		// progress even when draining + dispatch already ate the budget,
		// or a pass could spin on zero-progress slices forever.
		if m > 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return morsel.Stop
		}
		var c compactCounts
		for i := lo; i < hi; i++ {
			v := VertexID(chunk[i].ID)
			g.locks.Lock(uint64(v))
			g.compactVertexLocked(v, floor, g.maintHandles[w], &c)
			g.locks.Unlock(uint64(v))
			chunk[i].ID = -1 // processed
		}
		c.flush(&g.maintStats)
		return nil
	})

	// Return anything the deadline cut back to the dirty set, estimate
	// and all.
	processed := 0
	for _, d := range chunk {
		if d.ID < 0 {
			processed++
		} else {
			g.dirty.Mark(d.ID, d.Dead)
		}
	}
	return processed
}

// compactCounts accumulates one morsel's stat deltas so the hot loop does
// local adds and flushes to the shared atomics once per morsel.
type compactCounts struct {
	vertices, scanned, copied, dead, pruned int64
}

func (c *compactCounts) flush(s *maint.Stats) {
	if c.vertices == 0 {
		return
	}
	s.VerticesCompacted.Add(c.vertices)
	s.EntriesScanned.Add(c.scanned)
	s.EntriesCopied.Add(c.copied)
	s.EntriesDead.Add(c.dead)
	s.VersionsPruned.Add(c.pruned)
}

// maintNotify pings the scheduler that pressure changed; called from the
// write path after every dirty mark (two atomic loads inside Notify, a
// channel send only when a trigger is crossed).
func (g *Graph) maintNotify() {
	if s := g.maintSched; s != nil {
		s.Notify()
	}
}
