package core

// The expansion kernel: the one routine every hop of every traversal runs
// on, whatever its direction and however many workers it gets.
//
// One hop — "expand every frontier vertex one edge along a label" — is
// embarrassingly parallel, and it is exactly the workload the paper's
// evaluation runs multi-threaded over snapshots (§7.4). The kernel hands an
// item space to morsel.Run (the only place that starts workers) with a
// per-item body chosen by direction: top-down the items are the frontier
// and scan streams each vertex's TEL through the worker's private, reused
// EdgeIter; bottom-up they are the label's hinted destinations and probe
// (bottomup.go) tests each against the frozen frontier bitset. Both emit
// through the same hopBudget, so the Limit / MaxFrontier discipline is
// written once, and both look at ctx and the budget's spent flag once per
// morsel (morsel.Run) and every stopCheckEdges units of scan work inside
// one, so even one enormous adjacency list is interruptible.
//
// A sequential hop is this kernel with a single worker, not a second
// engine: morsel.Run calls the body once on the caller's goroutine, the
// body appends straight into the pre-sized next-frontier slice, the dedup
// set is probed without its stripe locks (hops are barriers, so a lone
// worker owns it) and the budget is not consulted until it could bite. With
// a pool the only shared mutable state is the lock-striped dedup set and
// the budget's two atomics; per-morsel outputs are reassembled in morsel
// order, so a top-down hop without Dedup/Limit is byte-identical at any
// width.

import (
	"context"
	"math"
	"sync/atomic"

	"livegraph/internal/morsel"
	"livegraph/internal/sparsebit"
)

// stopCheckEdges bounds how many units of scan work — frontier items plus
// TEL entries — a worker does between looks at ctx and the spent flag, so
// both interrupt even a single enormous adjacency list cooperatively.
const stopCheckEdges = 1024

// hopBudget is one hop's Limit / MaxFrontier discipline, charged by every
// destination the hop is about to emit. A lone worker's own count is the
// hop's, so it passes that; a pool claims from the two atomics instead.
type hopBudget struct {
	limit           int64 // results this hop may produce (the capped hop only); 0 = no limit
	maxF            int64 // next-frontier bound; 0 = unbounded
	shared          bool
	produced, grown atomic.Int64
	// spent is set when a budget runs out, so pool workers deep in a morsel
	// stop within stopCheckEdges.
	spent atomic.Bool
}

// admit charges one destination to a worker that has emitted have. emit
// says whether to append it; err is nil to keep going, morsel.Stop once the
// limit is reached (by this one if emit) or ErrFrontierTooLarge.
func (b *hopBudget) admit(have int) (emit bool, err error) {
	p := int64(have) + 1
	g := p
	// Claim the result slot before charging the frontier budget: results
	// the limit discards must not count toward MaxFrontier. A lone worker
	// stops at the limit before the frontier can outgrow it; pool workers
	// racing past the limit while the stop propagates must not trip
	// ErrFrontierTooLarge either.
	if b.limit > 0 {
		if b.shared {
			p = b.produced.Add(1)
		}
		if p > b.limit {
			return false, b.end(morsel.Stop)
		}
	}
	if b.maxF > 0 {
		if b.shared {
			g = b.grown.Add(1)
		}
		if g > b.maxF {
			return false, b.end(ErrFrontierTooLarge)
		}
	}
	if p == b.limit {
		return true, b.end(morsel.Stop)
	}
	return true, nil
}

// room is how many destinations a worker starting a morsel may append
// before admit could say anything but "emit, go on": none on a pool, where
// each is claimed; alone, up to the limit's last slot and the frontier bound.
func (b *hopBudget) room() int {
	if b.shared {
		return 0
	}
	r := math.MaxInt
	if b.limit > 0 {
		r = int(b.limit) - 1
	}
	if b.maxF > 0 {
		r = min(r, int(b.maxF))
	}
	return r
}

func (b *hopBudget) end(err error) error {
	b.spent.Store(true)
	return err
}

// hopRun is what the kernel ran a step on; 1 worker is the caller alone.
type hopRun struct{ workers, morselSize, morsels int }

// hopKernel is a run's expansion state: what outlives a hop (the Reader,
// the dedup and frontier bitsets, per-worker iterators) so a multi-hop
// traversal stops allocating once it has touched its working set, plus the
// hop being run.
type hopKernel struct {
	r         Reader
	g         *Graph
	outOfCore bool // g simulates out-of-core execution (Options.PageCache)
	locksHeld bool // r is a *Tx holding vertex locks, so it must not build a reverse index
	body      func(w, m, lo, hi int) error

	// The dedup set is made by the first top-down hop that dedups, with one
	// stripe — a lone worker takes no stripe lock — and traded for one
	// striped for the pool by the first hop that runs on one. The bottom-up
	// frontier bitset is made on first use, with one stripe (see freeze).
	seenSet     *sparsebit.Set
	seenStripes int
	fbits       *sparsebit.Set
	iters       []workerIter // one per worker; a lone worker's lives in iter0
	outs        [][]VertexID // one per morsel; a lone morsel's lives in out0
	iter0       [1]workerIter
	out0        [1][]VertexID

	hopState
}

// hopState is the hop being run; expand starts each hop from a fresh one.
type hopState struct {
	ctx    context.Context
	es     *execStep      // the hop's label and fused destination predicate
	items  []VertexID     // the frontier (top-down) or the candidates (bottom-up)
	gen    *revGen        // bottom-up: the label's reverse hints; nil = top-down
	seen   *sparsebit.Set // top-down dedup; nil = multiplicity semantics
	budget hopBudget
	ran    hopRun // what the hop runs on; one worker is alone (owner-mode dedup, budget unshared)
	// Attribution, summed from per-morsel locals at morsel end.
	dedupHits, cands, probes atomic.Int64
}

// workerIter pads a worker's private scan iterator so that two workers
// stepping neighbouring iterators never write the same cache line.
type workerIter struct {
	EdgeIter
	_ [64]byte
}

func newHopKernel(r Reader) *hopKernel {
	k := &hopKernel{r: r, g: r.graph()}
	k.outOfCore = k.g.opts.PageCache != nil
	if tx, ok := r.(*Tx); ok {
		k.locksHeld = len(tx.locked) > 0
	}
	k.body = k.runMorsel
	k.iters, k.outs = k.iter0[:], k.out0[:]
	return k
}

// expand runs one stepOut — bottom-up over gen's candidates when
// chooseDirection picked one, top-down over the frontier otherwise — on the
// workers the engage decision and the morsel count leave (k.ran.workers;
// 1 = the caller alone).
func (k *hopKernel) expand(ctx context.Context, t *Traversal, es *execStep, frontier []VertexID, gen *revGen, capped bool, par int, ls LabelStats) ([]VertexID, error) {
	k.hopState = hopState{ctx: ctx, es: es, items: frontier, gen: gen, ran: hopRun{workers: 1, morsels: 1}}
	bottomUp := gen != nil
	var engage bool
	var size int
	if bottomUp {
		k.items = gen.candidates()
		k.freeze(frontier)
		engage = par > 1 && len(k.items) >= 2*bottomUpMorselMin
		size = bottomUpMorselSize(len(k.items), par)
	} else {
		engage = t.engageParallel(len(frontier), par, k.outOfCore, ls.AvgDegree)
		size = t.hopMorselSize(len(frontier), par, k.outOfCore, ls.AvgDegree)
	}
	n := len(k.items)
	k.ran.morselSize = max(n, 1)
	if engage {
		if morsels, workers := morsel.Split(n, size, par); workers > 1 {
			k.ran = hopRun{workers: workers, morselSize: size, morsels: morsels}
		}
	}
	alone := k.ran.workers == 1

	if t.dedup && !bottomUp {
		stripes := 1
		if !alone {
			stripes = 4 * par
		}
		if k.seenStripes < stripes {
			k.seenSet, k.seenStripes = sparsebit.New(stripes), stripes
		} else {
			k.seenSet.Reset() // dedup is per hop
		}
		k.seen = k.seenSet
	}
	k.budget.maxF, k.budget.shared = int64(t.maxFrontier), !alone
	if capped {
		k.budget.limit = int64(t.limit)
	}
	if len(k.iters) < k.ran.workers {
		k.iters = make([]workerIter, k.ran.workers)
	}
	if cap(k.outs) < k.ran.morsels {
		k.outs = make([][]VertexID, k.ran.morsels)
	}
	k.outs = k.outs[:k.ran.morsels]
	clear(k.outs)
	if alone && !bottomUp {
		k.outs[0] = make([]VertexID, 0, t.nextCap(n, ls.AvgDegree, capped))
	}

	if err := morsel.Run(ctx, n, k.ran.morselSize, k.ran.workers, k.body); err != nil {
		return nil, err
	}
	return morsel.Concat(k.outs), nil
}

// nextCap sizes a lone worker's output from the label's mean degree, so the
// hop appends into one allocation instead of regrowing it once per
// doubling. An estimate — dedup and filters shrink the real output, hubs
// outgrow it — bounded by what the hop may return at all and by maxNextCap.
func (t *Traversal) nextCap(frontierLen int, avgDeg float64, capped bool) int {
	n := frontierLen
	if avgDeg > 1 {
		n = int(min(float64(frontierLen)*avgDeg, maxNextCap))
	}
	if capped {
		n = min(n, t.limit)
	}
	if t.maxFrontier > 0 {
		n = min(n, t.maxFrontier)
	}
	return n
}

// maxNextCap bounds nextCap's estimate: 64 Ki vertex IDs, half a megabyte.
const maxNextCap = 1 << 16

// hopWorker is one morsel's private state, on its worker's stack.
type hopWorker struct {
	k                        *hopKernel
	it                       *EdgeIter
	out                      []VertexID
	ticks                    int
	room                     int // destinations scan may still emit without asking the budget
	dedupHits, cands, probes int64
}

// runMorsel is the kernel's morsel.Run body: the direction's per-item body
// over items[lo:hi], output to the morsel's own slot.
func (k *hopKernel) runMorsel(wid, m, lo, hi int) (err error) {
	w := hopWorker{k: k, out: k.outs[m], it: &k.iters[wid].EdgeIter, room: k.budget.room()}
	for _, v := range k.items[lo:hi] {
		if k.gen != nil {
			err = w.probe(v)
		} else {
			err = w.scan(v)
		}
		if err != nil {
			break
		}
	}
	k.outs[m] = w.out
	if w.dedupHits+w.cands != 0 {
		k.dedupHits.Add(w.dedupHits)
		k.cands.Add(w.cands)
		k.probes.Add(w.probes)
	}
	return err
}

// tick counts one unit of scan work and, every stopCheckEdges of them,
// looks at what can end the hop from outside this worker.
func (w *hopWorker) tick() error {
	if w.ticks++; w.ticks%stopCheckEdges != 0 {
		return nil
	}
	return w.k.interrupted()
}

// interrupted is tick's slow path, out of line so that tick itself inlines.
//
//go:noinline
func (k *hopKernel) interrupted() error {
	if k.budget.spent.Load() {
		return morsel.Stop
	}
	return k.ctx.Err()
}

// scan is the top-down per-item body: one frontier vertex's TEL, newest
// first, with the fused destination predicate pushed into the scan loop.
func (w *hopWorker) scan(v VertexID) error {
	k := w.k
	if err := w.tick(); err != nil {
		return err
	}
	it := w.it
	k.r.neighborsInto(it, v, k.es.label)
	// Operands in locals: this is every traversal's hot loop, and one
	// worker must cost what a hand-written sequential scan does.
	out, keep, seen, room, alone := w.out, k.es.keep64, k.seen, w.room, k.ran.workers == 1
	var err error
	for it.advance(keep) {
		if err = w.tick(); err != nil {
			break
		}
		d := it.Dst()
		if seen != nil {
			var dup bool
			if alone {
				dup = seen.TestAndSetOwned(int64(d))
			} else {
				dup = seen.TestAndSet(int64(d))
			}
			if dup {
				w.dedupHits++
				continue
			}
		}
		if room > 0 {
			room--
			out = append(out, d)
			continue
		}
		var emit bool
		if emit, err = k.budget.admit(len(out)); emit {
			out = append(out, d)
		}
		if err != nil {
			break
		}
	}
	w.out, w.room = out, room
	return err
}

// advance steps the iterator, with the destination predicate pushed into
// the scan when one is fused (nil keep is the plain path).
func (e *EdgeIter) advance(keep func(int64) bool) bool {
	if keep == nil {
		return e.Next()
	}
	return e.nextWhere(keep)
}

// filterFrontierParallel evaluates a concurrency-safe Filter predicate on
// morsel workers, preserving frontier order (each morsel marks its range;
// survivors are compacted in place afterwards).
func filterFrontierParallel(ctx context.Context, r Reader, frontier []VertexID, pred func(Reader, VertexID) bool, workers, morselSize int) ([]VertexID, error) {
	marks := make([]bool, len(frontier))
	err := morsel.Run(ctx, len(frontier), morselSize, workers, func(_, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			marks[i] = pred(r, frontier[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	kept := frontier[:0]
	for i, ok := range marks {
		if ok {
			kept = append(kept, frontier[i])
		}
	}
	return kept, nil
}
