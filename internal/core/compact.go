package core

import (
	"time"

	"livegraph/internal/storage"
	"livegraph/internal/tel"
)

// Compaction (paper §6): TELs accumulate invalidated entries; periodically a
// compaction pass walks the dirty vertex set, copies the entries still
// visible to some ongoing or future transaction into a right-sized block,
// swaps the index pointer, and defer-frees the old block. Vertex version
// chains are pruned the same way. Compaction is vertex-wise and holds only
// one vertex lock at a time, so interference with the foreground workload
// is minimal — unlike an LSM tree, no multi-file merge ever runs.
//
// Passes run as budgeted, morsel-parallel slices (maint.go), normally on
// the background maintenance scheduler (internal/maint), triggered by
// pressure. This file keeps the per-vertex mechanics and the synchronous
// CompactNow façade.

// CompactNow runs one synchronous compaction pass and returns when the
// dirty backlog observed at the request is drained and deferred blocks
// past every pinned snapshot are reclaimed (vertices dirtied by writers
// racing the pass wait for the next one — the pass is bounded, so
// CompactNow terminates under any write load). With the background
// scheduler running, the pass executes on the scheduler goroutine —
// single-flight with background slices, so a concurrent
// pressure-triggered pass and CompactNow never double-compact. With
// maintenance disabled (CompactEvery < 0) the caller drives the same
// slice runner inline, without a budget deadline.
func (g *Graph) CompactNow() {
	if s := g.maintSched; s != nil {
		s.RunPass()
		return
	}
	g.inlinePass.Lock()
	defer g.inlinePass.Unlock()
	r := maintRunner{g}
	if backlog := int(g.dirty.Len()); backlog > 0 {
		r.MaintSlice(backlog, time.Time{}) // one slice, no budget deadline
		g.maintStats.Slices.Add(1)
	}
	r.MaintEndPass()
	g.maintStats.Passes.Add(1)
}

// compactVertexLocked compacts one vertex — its TELs and its version
// chain. Caller holds the vertex lock.
func (g *Graph) compactVertexLocked(v VertexID, floor int64, h *storage.Handle, c *compactCounts) {
	c.vertices++
	g.compactTELsLocked(v, floor, h, c)
	g.pruneVertexChainLocked(v, floor, c)
}

// deadEntry reports whether entry i of t is invisible to every transaction
// reading at or above floor: committed entries invalidated at or before the
// floor. Private (-TID) timestamps cannot occur here because the vertex
// lock excludes writers.
func deadEntry(t *tel.TEL, i int, floor int64) bool {
	inv := t.Invalidation(i)
	return inv >= 0 && inv <= floor
}

func (g *Graph) compactTELsLocked(v VertexID, floor int64, h *storage.Handle, c *compactCounts) {
	ll := g.eindex.Get(int64(v))
	if ll == nil {
		return
	}
	entries := ll.entries.Load()
	if entries == nil {
		return
	}
	for _, e := range *entries {
		t := e.tel.Load()
		n := t.Len()
		c.scanned += int64(n)
		// First scan: count survivors and their property bytes.
		live, liveProps := 0, 0
		for i := 0; i < n; i++ {
			if !deadEntry(t, i, floor) {
				live++
				liveProps += len(t.Props(i))
			}
		}
		if live == n {
			continue // nothing to reclaim
		}
		c.dead += int64(n - live)
		c.copied += int64(live)
		// Copy survivors into a right-sized block (possibly smaller — the
		// paper: "sometimes the block could shrink after many edges being
		// deleted").
		nt := tel.New(h, t.Src(), t.Label(), max(live, 1), liveProps)
		ni, npl := 0, 0
		for i := 0; i < n; i++ {
			if deadEntry(t, i, floor) {
				continue
			}
			npl = nt.CompactAppend(t, i, ni, npl)
			ni++
		}
		nt.Publish(ni, npl, t.CommitTS())
		e.tel.Store(nt)
		// Compaction drops only dead entries, so the visible-edge counter
		// is untouched; the entry count (scan cost) shrinks.
		g.statsPublish(Label(t.Label()), n, ni)
		h.DeferFree(t.Block, g.epochs.WriteEpoch())
		g.forgetBlock(t)
	}
}

// pruneVertexChainLocked drops vertex versions no transaction can still
// see: everything older than the newest version with ts <= floor.
func (g *Graph) pruneVertexChainLocked(v VertexID, floor int64, c *compactCounts) {
	ver := g.vindex.Get(int64(v))
	for ver != nil {
		if ver.ts <= floor {
			for cut := ver.prev; cut != nil; cut = cut.prev {
				c.pruned++
			}
			ver.prev = nil
			return
		}
		ver = ver.prev
	}
}
