package core

// Per-label degree statistics — the data the adaptive traversal executor
// plans from. For every edge label the graph maintains, incrementally at
// apply/compaction time (never on the read path):
//
//   - lists:   adjacency lists with at least one committed entry;
//   - edges:   visible edge versions (insertions minus invalidations);
//   - entries: committed log entries, dead ones included (scan cost);
//   - a log2-bucketed histogram of per-list entry counts, from which an
//     approximate p90 degree falls out.
//
// All counters are monotonic atomics updated from apply-side code only
// (committer.apply under commit.mu, ApplyEpoch under applyMu, compaction
// under the vertex lock), so maintenance is a handful of atomic adds per
// commit group. After recovery the whole table is rebuilt in one pass over
// the final TEL state (checkpoint-loaded blocks bypass the incremental
// hooks), see rebuildLabelStats. LabelStats.Targets is not one of these
// counters: it is read off the label's reverse index, once one is built.
//
// The statistics are advisory: they describe the graph *now*, not at any
// particular epoch, and only ever steer execution policy (direction
// choice, morsel widths, engage thresholds) — never correctness, which the
// TELs' own visibility checks decide.

import (
	"math/bits"
	"sync/atomic"
)

// statsBuckets bounds the degree histogram: bucket b holds lists whose
// committed entry count has bit-length b, so 64 covers every int64 count.
const statsBuckets = 64

// labelStats is the internal per-label counter block, stored in a
// chunkedIndex keyed by label.
type labelStats struct {
	lists   atomic.Int64
	edges   atomic.Int64
	entries atomic.Int64
	hist    [statsBuckets]atomic.Int64
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
	// P90Degree approximates the 90th-percentile list length from the
	// log2 histogram (an upper bound of the bucket the percentile falls
	// in; exact enough for planning, cheap enough for the write path).
	P90Degree int64
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

// histBucket maps a committed entry count to its histogram bucket; -1 for
// empty lists, which the histogram does not track.
func histBucket(n int) int {
	if n <= 0 {
		return -1
	}
	return bits.Len64(uint64(n)) - 1
}

// statsPublish records a TEL's committed entry count moving oldN -> newN
// (apply-time Publish, compaction rewrite, recovery rebuild). It keeps the
// entries counter, the lists counter (0 -> >0 transitions and back) and
// the histogram bucket occupancy in sync.
func (g *Graph) statsPublish(label Label, oldN, newN int) {
	if oldN == newN {
		return
	}
	st := g.lstatsFor(label)
	st.entries.Add(int64(newN - oldN))
	ob, nb := histBucket(oldN), histBucket(newN)
	if ob == nb {
		return
	}
	if ob < 0 {
		st.lists.Add(1)
	} else {
		st.hist[ob].Add(-1)
	}
	if nb < 0 {
		st.lists.Add(-1)
	} else {
		st.hist[nb].Add(1)
	}
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
		// Walk the histogram upward until 90% of lists are covered; the
		// bucket's upper bound approximates the percentile.
		need := (out.Lists*9 + 9) / 10
		cum := int64(0)
		for b := 0; b < statsBuckets; b++ {
			cum += st.hist[b].Load()
			if cum >= need {
				out.P90Degree = (int64(1) << uint(b+1)) - 1
				break
			}
		}
	}
	return out
}

// DegreeStats exposes the owning graph's label statistics on a snapshot
// (degreeStatsSource). Advisory: the numbers describe the graph now, which
// for an AsOf snapshot may differ from the pinned epoch — they only steer
// execution policy.
func (s *Snapshot) DegreeStats(label Label) LabelStats { return s.g.LabelDegreeStats(label) }

// DegreeStats exposes the owning graph's label statistics inside a
// transaction (degreeStatsSource). Uncommitted writes of this transaction
// are not reflected.
func (tx *Tx) DegreeStats(label Label) LabelStats { return tx.g.LabelDegreeStats(label) }

// degreeStatsSource is the optional Reader extension the traversal planner
// uses to reach degree statistics without widening the public Reader
// surface (foreign Reader implementations simply plan without them).
type degreeStatsSource interface {
	DegreeStats(label Label) LabelStats
}

var (
	_ degreeStatsSource = (*Tx)(nil)
	_ degreeStatsSource = (*Snapshot)(nil)
)
