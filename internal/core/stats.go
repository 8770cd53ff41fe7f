package core

// Per-label degree statistics — the data the adaptive traversal executor
// plans from. For every edge label the graph maintains, incrementally at
// apply/compaction time (never on the read path):
//
//   - lists:   adjacency lists with at least one committed entry;
//   - edges:   visible edge versions (insertions minus invalidations);
//   - entries: committed log entries, dead ones included (scan cost).
//
// All counters are atomics updated from apply-side code only
// (committer.apply under the leader token; applyEdge, which ApplyEpoch, WAL
// replay and checkpoint load all insert through; compaction under the
// vertex lock), so maintenance is a handful of atomic adds per commit
// group. Recovery keeps them the same way: a checkpoint's reset op
// un-counts the lists it drops (statsDrop), and its edge inserts, like
// every op replay applies, count as they land. LabelStats.Targets is not one of these
// counters: it is read off the label's reverse index, once one is built.
//
// The statistics are advisory: they describe the graph *now*, not at any
// particular epoch, and only ever steer execution policy (direction
// choice, morsel widths, engage thresholds) — never correctness, which the
// TELs' own visibility checks decide.

import (
	"sync/atomic"

	"livegraph/internal/mvcc"
	"livegraph/internal/tel"
)

// labelStats is the internal per-label counter block, stored in a
// chunkedIndex keyed by label.
type labelStats struct {
	lists   atomic.Int64
	edges   atomic.Int64
	entries atomic.Int64
}

// LabelStats is a point-in-time copy of one label's degree statistics.
type LabelStats struct {
	Label Label

	// Lists counts adjacency lists with at least one committed entry.
	Lists int64
	// Edges counts visible edge versions (insertions minus deletions).
	Edges int64
	// Entries counts committed log entries including invalidated ones —
	// the sequential scan cost of the label.
	Entries int64
	// Targets counts the bottom-up candidates of the label's reverse hint
	// index (revindex.go): distinct hinted destinations, a few of them
	// twice while an overlay is waiting to be folded. 0 until the index is
	// built — which the first in-edge scan of the label does, not any
	// write — so 0 says "never asked", not "no in-edges".
	Targets int64
	// AvgDegree is Edges/Lists (0 when the label has no lists).
	AvgDegree float64
}

// lstatsFor returns the counter block for label, creating it on first use.
func (g *Graph) lstatsFor(label Label) *labelStats {
	if st := g.lstats.Get(int64(label)); st != nil {
		return st
	}
	st := &labelStats{}
	if !g.lstats.CompareAndSwap(int64(label), nil, st) {
		st = g.lstats.Get(int64(label))
	}
	return st
}

// statsPublish records a TEL's committed entry count moving oldN -> newN
// (apply-time Publish, compaction rewrite, checkpoint-load drop). It
// keeps the entries counter and the lists counter (0 -> >0 transitions
// and back) in sync.
func (g *Graph) statsPublish(label Label, oldN, newN int) {
	if oldN == newN {
		return
	}
	st := g.lstatsFor(label)
	st.entries.Add(int64(newN - oldN))
	switch {
	case oldN == 0:
		st.lists.Add(1)
	case newN == 0:
		st.lists.Add(-1)
	}
}

// statsDrop un-counts a whole list leaving the graph (a checkpoint's
// reset op replacing its vertex): its committed entries, and its live ones from
// the visible edges.
func (g *Graph) statsDrop(t tel.TEL) {
	n := t.Len()
	label := Label(t.Label())
	g.statsPublish(label, n, 0)
	live := int64(0)
	for i := 0; i < n; i++ {
		if t.Invalidation(i) == mvcc.NullTS {
			live++
		}
	}
	g.statsEdges(label, -live)
}

// statsEdges records a visible-edge delta for label (+1 per committed
// insertion, -1 per committed invalidation).
func (g *Graph) statsEdges(label Label, delta int64) {
	if delta != 0 {
		g.lstatsFor(label).edges.Add(delta)
	}
}

// LabelDegreeStats returns the current degree statistics for label. The
// numbers are advisory (maintained at apply time, not epoch-pinned); the
// adaptive traversal executor uses them to pick expansion direction and
// morsel widths, and callers can use them the same way.
func (g *Graph) LabelDegreeStats(label Label) LabelStats {
	out := LabelStats{Label: label}
	if gen := g.rev.Get(int64(label)); gen.ready() {
		out.Targets = gen.targets()
	}
	st := g.lstats.Get(int64(label))
	if st == nil {
		return out
	}
	out.Lists = st.lists.Load()
	out.Edges = st.edges.Load()
	out.Entries = st.entries.Load()
	if out.Lists > 0 {
		out.AvgDegree = float64(out.Edges) / float64(out.Lists)
	}
	return out
}
