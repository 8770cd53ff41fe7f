package core

// Bottom-up (direction-optimizing) frontier expansion, after Beamer's
// direction-optimizing BFS: when the frontier is dense against a label's
// destination set, scanning every frontier vertex's adjacency list forward
// mostly rediscovers vertices already found — and, parallel, hammers the
// shared dedup bitset. The bottom-up pass inverts the loop: walk the
// *candidate* destinations (the label's hinted-destination registry —
// every dst that ever had an edge, wherever in the ID space it lives),
// probe each candidate's hinted sources against a frozen frontier bitset
// with lock-free Peeks, and confirm the first hit through the ordinary
// forward read path (Reader.GetEdge — full MVCC visibility at the
// traversal's epoch, own-writes semantics inside a Tx, AsOf epochs on a
// pinned snapshot). A candidate stops at its first confirmed hit, so each
// destination is emitted at most once — which is why bottom-up requires
// Dedup — and emission follows the registry's order, reassembled in morsel
// order when a pool runs it.
//
// This file holds only what is bottom-up's own: the direction decision
// (which is also what asks for the reverse index, revindex.go, and so what
// builds it the first time), the frontier bitset build and the
// per-candidate body. Workers, budgets, cancellation and reassembly are
// the expansion kernel's (parallel.go);
// with a pool the only shared mutable state is the budget's atomics —
// there is no dedup-set contention at all.

import (
	"fmt"
	"time"

	"livegraph/internal/sparsebit"
)

// chooseDirection decides one hop's expansion direction: a non-nil
// generation means bottom-up over it. A forced DirectionBottomUp without
// the prerequisites is an error; DirectionAuto applies the Beamer-style
// density test against the label's statistics: go bottom-up when the
// frontier's estimated outgoing edges make up more than 1/bottomUpBeta of
// the label's total edges (the frontier genuinely covers the label, so
// candidate probes hit) and exceed bottomUpAlpha × the candidate count
// (probing candidates beats scanning the frontier). The candidate count is
// the reverse index's to give, so the first half is tested first and only
// a hop that passes it asks for the index — building it, if this is the
// label's first in-scan, or folding it (built says for how long). A Reader
// that holds vertex locks cannot build (revindex.go): until someone else
// has, auto stays top-down and a forced bottom-up is refused.
func (k *hopKernel) chooseDirection(t *Traversal, label Label, frontierLen int, ls LabelStats) (gen *revGen, built time.Duration, err error) {
	forced := t.direction == DirectionBottomUp
	mf := float64(frontierLen) * max(ls.AvgDegree, 1)
	switch {
	case forced && !t.dedup:
		return nil, 0, ErrBottomUpUnsupported
	case !forced && (t.direction != DirectionAuto || !t.dedup || frontierLen < bottomUpMinFrontier ||
		ls.Lists <= 0 || bottomUpBeta*mf <= float64(ls.Edges)):
		return nil, 0, nil
	}
	gen, built = k.g.revReady(label, !k.locksHeld)
	switch {
	case gen == nil && forced:
		return nil, 0, fmt.Errorf("%w: label %d has no reverse index yet, and building one takes vertex locks this transaction already holds", ErrBottomUpUnsupported, label)
	case gen == nil || !forced && mf <= bottomUpAlpha*float64(gen.targets()):
		return nil, built, nil
	}
	return gen, built, nil
}

// Bottom-up morsels range over the candidate registry; every entry is a
// real hinted destination (at least one Peek, often a confirming read),
// so morsels are coarser than frontier morsels but not by orders of
// magnitude.
const (
	bottomUpMorselMin = 1 << 8
	bottomUpMorselMax = 1 << 14
)

func bottomUpMorselSize(n, workers int) int {
	return min(max(n/(4*workers), bottomUpMorselMin), bottomUpMorselMax)
}

// freeze builds the frontier bitset for a bottom-up hop. One goroutine
// builds it before the workers start and it is only Peek-ed afterwards —
// the frozen-set contract sparsebit.Peek requires — so the build owns the
// set and takes no stripe lock. A negative ID (only a start vertex can be
// one) is absent: no hint names it, so it stays out of the set, which
// takes non-negative keys only.
func (k *hopKernel) freeze(frontier []VertexID) {
	if k.fbits == nil {
		k.fbits = sparsebit.New(1)
	}
	k.fbits.Reset()
	for _, v := range frontier {
		if v >= 0 {
			k.fbits.TestAndSetOwned(int64(v))
		}
	}
}

// probe is the bottom-up per-item body: one candidate destination, with the
// hop's fused predicate applied as a pre-filter, before any hint is read.
// It emits the candidate at its first hinted source that is in the frontier
// and whose edge the forward read path confirms.
func (w *hopWorker) probe(c VertexID) error {
	k := w.k
	if err := w.tick(); err != nil {
		return err
	}
	if k.es.keep != nil && !k.es.keep(c) {
		return nil
	}
	w.cands++
	var err error
	k.gen.each(c, func(src VertexID) bool {
		w.probes++
		if !k.fbits.Peek(int64(src)) {
			return true
		}
		if _, gerr := k.r.GetEdge(src, k.es.label, c); gerr != nil {
			return true
		}
		var emit bool
		if emit, err = k.budget.admit(len(w.out)); emit {
			w.out = append(w.out, c)
		}
		return false
	})
	return err
}
