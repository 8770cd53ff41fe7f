package core

// The composable traversal API: multi-hop reads — friends-of-friends,
// fraud-ring walks, temporal audits — expressed as a builder that compiles
// to nested purely sequential TEL scans. A traversal never materialises
// more state than the current frontier slice (plus, with Dedup, one seen
// set per hop), so the paper's central access pattern — stream over a
// contiguous log, decide visibility from data already in cache — is
// preserved hop by hop. Because execution takes any Reader, one traversal
// runs unchanged inside a transaction (*Tx, seeing its own writes), on a
// pinned analytics snapshot (*Snapshot), or against a past epoch via AsOf.
//
// Execution is *adaptive*, steered by the per-label degree statistics the
// engine maintains at apply time (stats.go):
//
//   - every hop runs on the one expansion kernel (parallel.go); it gets a
//     worker pool when the Reader is safe for concurrent use and the
//     frontier's estimated work repays worker dispatch, with morsel widths
//     sized so each morsel scans about morselEdges edges, and is the
//     kernel's one-worker case otherwise;
//   - a deduplicating hop switches to bottom-up (direction-optimizing)
//     expansion when the frontier is dense against the label's candidate
//     set (bottomup.go) — probing hinted destinations against a frozen
//     frontier bitset instead of scanning every frontier TEL forward. The
//     reverse index behind it is built by the first hop that wants it
//     (revindex.go);
//   - pure destination predicates (FilterDst) are pushed down into the
//     TEL scan loop itself, so rejected edges never surface.
//
// Every adaptive choice changes only the execution schedule, never the
// result semantics, and RunExplain reports what was chosen per hop. The
// policy's thresholds are constants (engageMin … bottomUpBeta below), not
// options; Parallel(1) and Direction(DirectionTopDown) pin a strategy.

import (
	"context"
	"errors"
	"runtime"
	"time"

	"livegraph/internal/morsel"
	"livegraph/internal/obs"
)

// ErrAsOfMismatch is returned by Traversal.Run when AsOf was set but the
// supplied Reader observes a different epoch; run the traversal with
// RunGraph, or pin a snapshot at the requested epoch first.
var ErrAsOfMismatch = errors.New("livegraph: traversal AsOf epoch differs from the reader's epoch")

// ErrFrontierTooLarge is returned by a traversal whose intermediate
// frontier outgrew the MaxFrontier bound — a safety valve for servers
// running untrusted multi-hop queries, where a few hops on a dense graph
// can otherwise expand multiplicatively without bound.
var ErrFrontierTooLarge = errors.New("livegraph: traversal frontier exceeded MaxFrontier; narrow the walk with Dedup, Filter or Limit")

// ErrBottomUpUnsupported is returned when Direction(DirectionBottomUp)
// forces bottom-up expansion on a traversal that cannot run it: bottom-up
// emits each destination at most once (it requires Dedup) and probes the
// graph's reverse hint index (it requires a graph-backed Reader, and one
// that may build the index if the label has none yet: a *Tx that already
// holds vertex locks may not, and gets this error wrapped with that
// reason). Adaptive runs never hit this error — with the prerequisites
// missing they silently stay top-down.
var ErrBottomUpUnsupported = errors.New("livegraph: bottom-up expansion requires Dedup and a graph-backed Reader")

// Direction selects the expansion strategy for a traversal's hops.
type Direction int

const (
	// DirectionAuto (the default) picks per hop: bottom-up when the
	// degree statistics say the frontier is dense against the label's
	// candidate set, top-down otherwise.
	DirectionAuto Direction = iota
	// DirectionTopDown forces classic forward expansion: scan every
	// frontier vertex's adjacency list.
	DirectionTopDown
	// DirectionBottomUp forces bottom-up expansion on every hop; see
	// ErrBottomUpUnsupported for its prerequisites.
	DirectionBottomUp
)

const (
	stepOut = iota
	stepFilter
	stepFilterDst
)

type travStep struct {
	kind      int
	label     Label                           // stepOut
	filter    func(r Reader, v VertexID) bool // stepFilter
	filterPar bool                            // stepFilter: safe for concurrent calls
	keep      func(v VertexID) bool           // stepFilterDst
}

// execStep is one step of the compiled plan: original steps with every
// FilterDst predicate in the filter run after a hop fused into that hop's
// scan (predicate pushdown). Compiled at build time (recompile), so Run
// does no planning work.
type execStep struct {
	kind      int
	si        int // index of the originating step (EXPLAIN alignment)
	label     Label
	filter    func(r Reader, v VertexID) bool
	filterPar bool
	keep      func(v VertexID) bool // fused destination predicate (out hops)
	keep64    func(d int64) bool    // keep as the TEL scan loop takes it
	pushdown  int                   // FilterDst predicates fused into this hop
	fusedSi   []int                 // their original step indices
	reordered bool                  // a fused predicate overtook a Filter
}

// Traversal is a multi-hop traversal specification built by chaining Out,
// Filter, Dedup, Limit and AsOf onto Traverse's result:
//
//	recs, err := core.Traverse(u).
//	    Out(lFriend).Out(lFriend).     // two hops
//	    Filter(func(r core.Reader, v core.VertexID) bool { return v != u }).
//	    Dedup().Limit(10).
//	    Run(ctx, tx)
//
// Building mutates the receiver (each method returns it for chaining); a
// built Traversal is immutable during Run and may be executed many times,
// concurrently, against different Readers.
type Traversal struct {
	src         []VertexID
	steps       []travStep
	plan        []execStep
	limit       int
	maxFrontier int
	parallel    int
	morselN     int
	asOf        int64
	hasAsOf     bool
	dedup       bool
	direction   Direction
}

// Traverse starts a traversal from the given source vertices.
func Traverse(src ...VertexID) *Traversal {
	return &Traversal{src: append([]VertexID(nil), src...)}
}

// Out expands the frontier one hop along label: every visible (v,label,*)
// edge of every frontier vertex, scanned newest first.
func (t *Traversal) Out(label Label) *Traversal {
	t.steps = append(t.steps, travStep{kind: stepOut, label: label})
	t.recompile()
	return t
}

// Filter keeps only frontier vertices for which fn returns true. fn
// receives the executing Reader, so it can consult vertex payloads or edge
// properties at the traversal's snapshot. fn always runs on the caller's
// goroutine, post-expansion, in frontier order — it may be stateful; use
// FilterParallel for thread-safe predicates worth fanning out, and
// FilterDst for pure destination-ID predicates the engine can push into
// the scans.
func (t *Traversal) Filter(fn func(r Reader, v VertexID) bool) *Traversal {
	t.steps = append(t.steps, travStep{kind: stepFilter, filter: fn})
	t.recompile()
	return t
}

// FilterParallel is Filter for predicates that are safe to call from
// multiple goroutines concurrently: on wide frontiers over a concurrency-
// safe Reader the predicate runs on the morsel worker pool (frontier order
// is preserved). Semantically identical to Filter otherwise.
func (t *Traversal) FilterParallel(fn func(r Reader, v VertexID) bool) *Traversal {
	t.steps = append(t.steps, travStep{kind: stepFilter, filter: fn, filterPar: true})
	t.recompile()
	return t
}

// FilterDst keeps only frontier vertices whose *ID* satisfies fn. fn must
// be a pure function of the vertex ID — no Reader access, no side effects,
// safe from any goroutine — which is what lets the planner push it down
// into the TEL scan loop of the preceding hop (rejected edges never
// surface or count against budgets) and evaluate it before any adjacent
// Filter in the same run. The surviving result set is always identical to
// running the predicates in written order; only evaluation order and
// per-predicate side effects (which fn must not have) can differ. See
// Explain's pushdown/reordered fields for what the planner did.
func (t *Traversal) FilterDst(fn func(v VertexID) bool) *Traversal {
	t.steps = append(t.steps, travStep{kind: stepFilterDst, keep: fn})
	t.recompile()
	return t
}

// Dedup makes every hop emit each destination vertex at most once, keeping
// frontiers small on dense graphs. Without it a vertex reachable along
// multiple paths appears once per path (multiplicity semantics).
func (t *Traversal) Dedup() *Traversal {
	t.dedup = true
	return t
}

// Limit caps the number of results. When the final step is a hop, the
// underlying scans stop as soon as n results exist.
func (t *Traversal) Limit(n int) *Traversal {
	t.limit = n
	return t
}

// MaxFrontier bounds the size every intermediate frontier may reach;
// exceeding it aborts the run with ErrFrontierTooLarge. Zero means
// unbounded (the default for trusted, in-process callers). The bound
// applies to frontiers as actually materialised: destinations a pushed-
// down FilterDst rejects inside the scan never count.
func (t *Traversal) MaxFrontier(n int) *Traversal {
	t.maxFrontier = n
	return t
}

// Parallel sets the worker-pool width for frontier expansion. 1 forces
// sequential execution; 0 (the default) defers to the graph's
// Options.TraversalParallelism, which itself defaults to GOMAXPROCS.
//
// Parallel hops require a Reader that is safe for concurrent use (one
// implementing ParallelReader, like *Snapshot); on any other Reader — a
// *Tx in particular — execution stays sequential regardless of this
// setting. Narrow frontiers (at most one morsel wide) also run
// sequentially: dispatching workers for a handful of vertices costs more
// than the scans themselves.
//
// Without Dedup or Limit, a parallel run returns exactly the sequential
// result in the same order (morsel outputs are reassembled in frontier
// order). With Dedup the result is the same *set* but first-claimant
// ordering may differ; with Limit the result is some size-limit subset of
// the sequential result rather than its prefix.
func (t *Traversal) Parallel(n int) *Traversal {
	t.parallel = n
	return t
}

// MorselSize overrides the number of frontier vertices per work morsel.
// Zero (the default) sizes morsels adaptively: morsel.DefaultSize at
// most, shrunk until the frontier splits into about four morsels per
// worker — or, when the label's degree statistics are available, until a
// morsel scans about morselEdges edges. Smaller morsels
// balance skewed frontiers at the cost of more claim traffic; mostly a
// tuning and testing knob.
func (t *Traversal) MorselSize(n int) *Traversal {
	t.morselN = n
	return t
}

// Direction overrides the expansion strategy for every hop of this
// traversal: DirectionAuto (the default) decides per hop from the degree
// statistics, DirectionTopDown and DirectionBottomUp force one strategy —
// the A/B lever for benchmarks and the equivalence suite.
func (t *Traversal) Direction(d Direction) *Traversal {
	t.direction = d
	return t
}

// AsOf runs the traversal against the graph as of a past epoch — temporal
// time travel over the TELs' own version history. Execute with RunGraph
// (which pins a snapshot at the epoch, subject to Options.HistoryRetention
// — see ErrHistoryGone), or with Run against a Reader already at that
// epoch.
func (t *Traversal) AsOf(epoch int64) *Traversal {
	t.asOf = epoch
	t.hasAsOf = true
	return t
}

// recompile rebuilds the execution plan from the step list; called by
// every step-appending builder method so Run never plans.
//
// The only rewrite is predicate pushdown: within each contiguous run of
// filter steps following a hop, FilterDst predicates are fused into the
// hop's scan (composed with AND) and the remaining Filter steps keep their
// original relative order after it. A fused predicate that textually
// followed a Filter in the run is thereby evaluated earlier — legal
// because FilterDst predicates are pure (see FilterDst) — and the plan
// marks the hop reordered. Filter runs not preceded by a hop (at the very
// front of the traversal) execute as written.
func (t *Traversal) recompile() {
	t.plan = t.plan[:0]
	n := len(t.steps)
	for i := 0; i < n; {
		st := &t.steps[i]
		if st.kind != stepOut {
			// No hop to fuse into: a FilterDst here is an ordinary filter.
			es := execStep{kind: stepFilter, si: i, filter: st.filter, filterPar: st.filterPar}
			if keep := st.keep; st.kind == stepFilterDst {
				es.filter = func(_ Reader, v VertexID) bool { return keep(v) }
			}
			t.plan = append(t.plan, es)
			i++
			continue
		}
		es := execStep{kind: stepOut, si: i, label: st.label}
		var rest []execStep
		sawFilter := false
		j := i + 1
		for ; j < n && t.steps[j].kind != stepOut; j++ {
			fs := &t.steps[j]
			if fs.kind == stepFilterDst {
				es.keep = andKeep(es.keep, fs.keep)
				es.pushdown++
				es.fusedSi = append(es.fusedSi, j)
				if sawFilter {
					es.reordered = true
				}
			} else {
				sawFilter = true
				rest = append(rest, execStep{kind: stepFilter, si: j, filter: fs.filter, filterPar: fs.filterPar})
			}
		}
		if keep := es.keep; keep != nil {
			es.keep64 = func(d int64) bool { return keep(VertexID(d)) }
		}
		t.plan = append(t.plan, es)
		t.plan = append(t.plan, rest...)
		i = j
	}
}

// andKeep composes destination predicates left to right.
func andKeep(a, b func(VertexID) bool) func(VertexID) bool {
	if a == nil {
		return b
	}
	return func(v VertexID) bool { return a(v) && b(v) }
}

// Run executes the traversal against r and returns the final frontier.
// Cancelling ctx stops the traversal between scans.
func (t *Traversal) Run(ctx context.Context, r Reader) ([]VertexID, error) {
	if t.hasAsOf && r.ReadEpoch() != t.asOf {
		return nil, ErrAsOfMismatch
	}
	return t.run(ctx, r, nil)
}

// RunExplain is Run with plan annotation: the traversal executes normally
// and the returned Explain carries per-hop frontier sizes, expansion
// directions, dedup hits, morsel widths and budget cuts. The plan is
// returned even when execution fails (with Explain.Error set), so a budget
// abort still shows which hop blew up.
func (t *Traversal) RunExplain(ctx context.Context, r Reader) ([]VertexID, *Explain, error) {
	ex := t.Explain()
	if t.hasAsOf && r.ReadEpoch() != t.asOf {
		ex.Error = ErrAsOfMismatch.Error()
		return nil, ex, ErrAsOfMismatch
	}
	res, err := t.run(ctx, r, ex)
	ex.Executed = true
	ex.ResultCount = len(res)
	if err != nil {
		ex.Error = err.Error()
	}
	return res, ex, err
}

// RunGraph pins a snapshot of g — at the AsOf epoch if one was set, at the
// latest epoch otherwise — executes the traversal on it, and releases it.
func (t *Traversal) RunGraph(ctx context.Context, g *Graph) ([]VertexID, error) {
	var (
		s   *Snapshot
		err error
	)
	if t.hasAsOf {
		s, err = g.SnapshotAtCtx(ctx, t.asOf)
	} else {
		s, err = g.SnapshotCtx(ctx)
	}
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return t.run(ctx, s, nil)
}

// effectiveParallelism resolves the worker-pool width for this run:
// the builder's Parallel setting, falling back to the graph's
// Options.TraversalParallelism, falling back to GOMAXPROCS — and clamped
// to 1 whenever the Reader is not marked safe for concurrent use.
func (t *Traversal) effectiveParallelism(r Reader) int {
	if _, ok := r.(ParallelReader); !ok {
		return 1
	}
	p := t.parallel
	if p == 0 {
		if gs, ok := r.(graphSource); ok {
			p = gs.graph().opts.TraversalParallelism
		}
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p
}

// The adaptive policy's thresholds: constants, because nothing ever set
// them as options. The one input the policy takes from the graph is
// observed, not configured: in memory, expanding one vertex costs
// sub-microsecond scans, so only DefaultSize-wide frontiers repay worker
// dispatch and morsels stay coarse; with Options.PageCache set (the
// out-of-core simulation) one expansion can stall milliseconds on page
// faults — overlapping those waits is the whole point — so even an
// 8-vertex frontier fans out, one vertex per morsel.
const (
	engageMin          = morsel.DefaultSize // frontier width that repays worker dispatch
	engageMinOutOfCore = 8
	minMorsel          = 8 // adaptive morsel-width floor
	minMorselOutOfCore = 1
	morselEdges        = 512 // per-morsel edge target of degree-driven sizing
	// engageMinFloor bounds how far degree statistics may lower the
	// engage threshold on hub-heavy labels.
	engageMinFloor = 4
	// The Beamer-style density test's factors (chooseDirection), and the
	// frontier width below which the bitset build alone outweighs any
	// probe savings.
	bottomUpAlpha       = 8.0
	bottomUpBeta        = 3.0
	bottomUpMinFrontier = 16
)

// hopMorselSize picks the morsel width for one hop: the explicit
// MorselSize when set, otherwise morsel.SizeFor's adaptive width with its
// ceiling lowered so one morsel scans about morselEdges edges when the
// label's live average degree is known — undersplitting idles workers
// whenever per-vertex cost balloons (a hub's long TEL, an out-of-core page
// fault), so the default errs toward fine.
func (t *Traversal) hopMorselSize(frontierLen, par int, outOfCore bool, avgDeg float64) int {
	if t.morselN > 0 {
		return t.morselN
	}
	maxSize, floor := morsel.DefaultSize, minMorsel
	if outOfCore {
		floor = minMorselOutOfCore
	}
	if avgDeg > 1 {
		maxSize = min(maxSize, int(morselEdges/avgDeg))
	}
	return morsel.SizeFor(frontierLen, par, floor, maxSize)
}

// engageParallel reports whether a step over frontierLen vertices should
// get a worker pool: dispatching goroutines for a handful of scans costs
// more than the scans themselves. The threshold is engageMin vertices,
// lowered (to at least engageMinFloor) for labels whose average degree
// makes even a narrow frontier expensive to expand.
func (t *Traversal) engageParallel(frontierLen, par int, outOfCore bool, avgDeg float64) bool {
	if par <= 1 {
		return false
	}
	if t.morselN > 0 {
		return frontierLen > t.morselN
	}
	eff := engageMin
	if outOfCore {
		eff = engageMinOutOfCore
	}
	if avgDeg > 1 {
		if e := int(8 * morselEdges / avgDeg); e < eff {
			eff = max(e, engageMinFloor)
		}
	}
	return frontierLen >= eff
}

// run executes the traversal. ex, when non-nil, receives per-hop runtime
// statistics (RunExplain); it must come from t.Explain() so its Hops line
// up with t.steps. Observability — the lg_traversal_* histograms, a
// sampled "traverse" span with per-hop children, and slow-op capture —
// engages when r is backed by a graph.
func (t *Traversal) run(ctx context.Context, r Reader, ex *Explain) ([]VertexID, error) {
	var o *graphObs
	if gs, ok := r.(graphSource); ok {
		o = gs.graph().ob
	}
	var tracer *obs.Tracer
	if o != nil {
		tracer = o.tracer
	}
	tctx, tsp := tracer.StartSpan(ctx, "traverse")
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	res, err := t.runSteps(tctx, r, ex, o)
	if o != nil {
		d := time.Since(t0)
		o.travRun.Record(d)
		if tsp == nil {
			tracer.SlowOp("traverse", d,
				obs.Int("hops", int64(len(t.steps))), obs.Int("results", int64(len(res))))
		}
	}
	if tsp != nil {
		tsp.SetAttr(obs.Int("hops", int64(len(t.steps))), obs.Int("results", int64(len(res))))
		if err != nil {
			tsp.SetAttr(obs.String("error", err.Error()))
		}
	}
	tsp.End()
	return res, err
}

func (t *Traversal) runSteps(ctx context.Context, r Reader, ex *Explain, o *graphObs) ([]VertexID, error) {
	// A hop only reads its input frontier; filters compact theirs in place,
	// and an empty plan returns it, so only those get a private copy.
	frontier := t.src
	if len(t.plan) == 0 || t.plan[0].kind != stepOut {
		frontier = append([]VertexID(nil), t.src...)
	}
	lastExec := len(t.plan) - 1
	par := t.effectiveParallelism(r)
	if ex != nil {
		ex.Parallelism = par
	}
	stats, _ := r.(degreeStatsSource)
	k := newHopKernel(r)
	for pi := range t.plan {
		es := &t.plan[pi]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var hp *HopPlan
		if ex != nil {
			hp = &ex.Hops[es.si]
			hp.FrontierIn = len(frontier)
		}
		var hopStart time.Time
		timed := o != nil || hp != nil
		if timed {
			hopStart = time.Now()
		}
		var err error
		switch es.kind {
		case stepFilter:
			if es.filterPar && t.engageParallel(len(frontier), par, k.outOfCore, 0) {
				ms := t.hopMorselSize(len(frontier), par, k.outOfCore, 0)
				morsels, workers := morsel.Split(len(frontier), ms, par)
				hp.ran(hopRun{workers, ms, morsels})
				frontier, err = filterFrontierParallel(ctx, r, frontier, es.filter, par, ms)
			} else {
				kept := frontier[:0]
				for _, v := range frontier {
					if es.filter(r, v) {
						kept = append(kept, v)
					}
				}
				frontier = kept
			}
		case stepOut:
			// Short-circuit the scans only when this hop produces the
			// final result set; earlier hops must stay complete because a
			// later filter may drop vertices.
			capped := t.limit > 0 && pi == lastExec
			var ls LabelStats
			if stats != nil {
				ls = stats.DegreeStats(es.label)
			}
			gen, built, derr := k.chooseDirection(t, es.label, len(frontier), ls)
			if derr != nil {
				return nil, derr
			}
			direction := DirectionTopDown
			if gen != nil {
				direction = DirectionBottomUp
			}
			_, hsp := obs.StartSpan(ctx, "traverse.hop")
			var next []VertexID
			next, err = k.expand(ctx, t, es, frontier, gen, capped, par, ls)
			hits, ran := k.dedupHits.Load(), k.ran
			if hp != nil {
				hp.Direction = direction.String()
				hp.IndexBuildUs = int64((built + time.Microsecond - 1) / time.Microsecond) // rounded up: zero means no build
				hp.ran(ran)
				hp.DedupHits = hits
				hp.Candidates, hp.HintProbes = k.cands.Load(), k.probes.Load()
				switch {
				case errors.Is(err, ErrFrontierTooLarge):
					hp.BudgetCut = "maxFrontier"
				case capped && err == nil && len(next) >= t.limit:
					hp.BudgetCut = "limit"
				}
			}
			if o != nil {
				o.travHop.Record(time.Since(hopStart))
			}
			if hsp != nil {
				hsp.SetAttr(obs.String("direction", direction.String()),
					obs.Int("workers", int64(ran.workers)), obs.Int("morselSize", int64(ran.morselSize)),
					obs.Int("frontierIn", int64(len(frontier))),
					obs.Int("frontierOut", int64(len(next))), obs.Int("dedupHits", hits))
				if err != nil {
					hsp.SetAttr(obs.String("error", err.Error()))
				}
			}
			hsp.End()
			frontier = next
		}
		if hp != nil {
			hp.FrontierOut = len(frontier)
			hp.DurationNs = time.Since(hopStart).Nanoseconds()
		}
		if err != nil {
			return nil, err
		}
	}
	if t.limit > 0 && len(frontier) > t.limit {
		frontier = frontier[:t.limit]
	}
	return frontier, nil
}
