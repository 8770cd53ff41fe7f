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
// Dedup — and emission follows the registry's (stable, append-only)
// order, reassembled in morsel order when a pool runs it.
//
// This file holds only what is bottom-up's own: the direction decision,
// the frontier bitset build and the per-candidate body. Workers, budgets,
// cancellation and reassembly are the expansion kernel's (parallel.go);
// with a pool the only shared mutable state is the budget's atomics —
// there is no dedup-set contention at all.

import "livegraph/internal/sparsebit"

// chooseDirection decides one hop's expansion direction. A forced
// DirectionBottomUp without the prerequisites is an error; DirectionAuto
// applies the Beamer-style density test against the label's statistics:
// go bottom-up when the frontier's estimated outgoing edges exceed
// bottomUpAlpha × the hinted candidate count (probing candidates beats
// scanning the frontier) and make up more than 1/bottomUpBeta of the
// label's total edges (the frontier genuinely covers the label, so
// candidate probes hit).
func (t *Traversal) chooseDirection(g *Graph, frontierLen int, ls LabelStats) (Direction, error) {
	canBU := t.dedup && g != nil && !g.opts.DisableReverseIndex
	switch {
	case t.direction == DirectionBottomUp && !canBU:
		return 0, ErrBottomUpUnsupported
	case t.direction != DirectionAuto:
		return t.direction, nil
	case !canBU || frontierLen < bottomUpMinFrontier || ls.Targets <= 0 || ls.Lists <= 0:
		return DirectionTopDown, nil
	}
	mf := float64(frontierLen) * max(ls.AvgDegree, 1)
	if mf > bottomUpAlpha*float64(ls.Targets) && bottomUpBeta*mf > float64(ls.Edges) {
		return DirectionBottomUp, nil
	}
	return DirectionTopDown, nil
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
// set and takes no stripe lock.
func (k *hopKernel) freeze(frontier []VertexID) {
	if k.fbits == nil {
		k.fbits = sparsebit.New(1)
	}
	k.fbits.Reset()
	for _, v := range frontier {
		k.fbits.TestAndSetOwned(int64(v))
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
	ra := k.rv.hints(c)
	if ra == nil {
		return nil
	}
	for _, src := range ra.snapshot() {
		w.probes++
		if !k.fbits.Peek(int64(src)) {
			continue
		}
		if _, err := k.r.GetEdge(src, k.es.label, c); err != nil {
			continue
		}
		emit, err := k.budget.admit(len(w.out))
		if emit {
			w.out = append(w.out, c)
		}
		return err
	}
	return nil
}
