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
//   - hops run on the morsel-driven parallel engine (parallel.go) when the
//     Reader is safe for concurrent use and the frontier's estimated work
//     repays worker dispatch, with morsel widths sized so each morsel
//     scans about Options.TraversalMorselEdges edges;
//   - a deduplicating hop switches to bottom-up (direction-optimizing)
//     expansion when the frontier is dense against the label's candidate
//     set (bottomup.go) — probing hinted destinations against a frozen
//     frontier bitset instead of scanning every frontier TEL forward;
//   - pure destination predicates (FilterDst) are pushed down into the
//     TEL scan loop itself, so rejected edges never surface.
//
// Every adaptive choice changes only the execution schedule, never the
// result semantics, and RunExplain reports what was chosen per hop.

import (
	"context"
	"errors"
	"runtime"
	"time"

	"livegraph/internal/morsel"
	"livegraph/internal/obs"
	"livegraph/internal/sparsebit"
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
// graph's reverse hint index (it requires a graph-backed Reader with
// Options.DisableReverseIndex unset). Adaptive runs never hit this error —
// with the prerequisites missing they silently stay top-down.
var ErrBottomUpUnsupported = errors.New("livegraph: bottom-up expansion requires Dedup and a graph-backed Reader with the reverse index enabled")

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
	keep      func(v VertexID) bool // fused/standalone destination predicate
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
// morsel scans about Options.TraversalMorselEdges edges. Smaller morsels
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
			t.plan = append(t.plan, execStep{
				kind: st.kind, si: i,
				filter: st.filter, filterPar: st.filterPar, keep: st.keep,
			})
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

// travKnobs are the run-resolved adaptive-policy parameters: the
// Options.Traversal* knobs with defaults filled in, plus the switches the
// hop loop consults.
type travKnobs struct {
	engageMin   int     // frontier width that repays worker dispatch
	minMorsel   int     // adaptive morsel-width floor
	morselEdges int     // per-morsel edge target (0 = degree-driven sizing off)
	buAlpha     float64 // bottom-up density factor (0 = auto bottom-up off)
	buBeta      float64 // bottom-up total-edge guard
}

const (
	defaultMorselEdges   = 512
	defaultBottomUpAlpha = 8.0
	defaultBottomUpBeta  = 3.0
	// bottomUpMinFrontier keeps trivially narrow frontiers top-down: below
	// it the frontier bitset build alone outweighs any probe savings.
	bottomUpMinFrontier = 16
	// engageMinFloor bounds how far degree statistics may lower the
	// parallel-engage threshold on hub-heavy labels.
	engageMinFloor = 4
)

// resolveKnobs fills the adaptive-policy parameters for a run over g
// (which may be nil for foreign Readers — defaults then apply). In memory,
// expanding one vertex costs sub-microsecond scans, so only
// DefaultSize-wide frontiers repay worker dispatch and morsels stay
// coarse. Under the out-of-core simulation a single expansion can stall
// milliseconds on page faults — overlapping those waits is the whole point
// — so even an 8-vertex frontier fans out, one vertex per morsel.
func resolveKnobs(g *Graph) travKnobs {
	k := travKnobs{
		engageMin:   morsel.DefaultSize,
		minMorsel:   8,
		morselEdges: defaultMorselEdges,
		buAlpha:     defaultBottomUpAlpha,
		buBeta:      defaultBottomUpBeta,
	}
	if g == nil {
		return k
	}
	if g.opts.PageCache != nil {
		k.engageMin, k.minMorsel = 8, 1
	}
	if v := g.opts.TraversalEngageMin; v > 0 {
		k.engageMin = v
	}
	if v := g.opts.TraversalMinMorsel; v > 0 {
		k.minMorsel = v
	}
	if v := g.opts.TraversalMorselEdges; v != 0 {
		k.morselEdges = v
		if v < 0 {
			k.morselEdges = 0 // degree-driven sizing disabled
		}
	}
	if v := g.opts.TraversalBottomUpAlpha; v != 0 {
		k.buAlpha = v
		if v < 0 {
			k.buAlpha = 0 // auto bottom-up disabled
		}
	}
	if v := g.opts.TraversalBottomUpBeta; v > 0 {
		k.buBeta = v
	}
	return k
}

// hopMorselSize picks the morsel width for one hop: the explicit
// MorselSize when set, otherwise at most morsel.DefaultSize — lowered so
// one morsel scans about k.morselEdges edges when the label's live average
// degree is known — shrunk until the frontier splits into about four
// morsels per worker, floored at k.minMorsel. Oversplitting costs one
// atomic claim per extra morsel — noise — while undersplitting idles
// workers whenever per-vertex cost balloons (a hub's long TEL, an
// out-of-core page fault), so the adaptive default errs toward fine.
func (t *Traversal) hopMorselSize(frontierLen, par int, k travKnobs, avgDeg float64) int {
	if t.morselN > 0 {
		return t.morselN
	}
	maxSize := morsel.DefaultSize
	if k.morselEdges > 0 && avgDeg > 1 {
		if target := int(float64(k.morselEdges) / avgDeg); target < maxSize {
			maxSize = target
		}
	}
	return morsel.SizeFor(frontierLen, par, k.minMorsel, maxSize)
}

// engageParallel reports whether a hop over frontierLen vertices should
// dispatch to the worker pool: frontiers below the engage threshold run
// sequentially — dispatching goroutines for a handful of scans costs more
// than the scans themselves. The threshold is k.engageMin vertices,
// lowered (to at least engageMinFloor) for labels whose average degree
// makes even a narrow frontier expensive to expand.
func (t *Traversal) engageParallel(frontierLen, par int, k travKnobs, avgDeg float64) bool {
	if par <= 1 {
		return false
	}
	if t.morselN > 0 {
		return frontierLen > t.morselN
	}
	eff := k.engageMin
	if k.morselEdges > 0 && avgDeg > 1 {
		if e := int(float64(8*k.morselEdges) / avgDeg); e < eff {
			eff = e
			if eff < engageMinFloor {
				eff = engageMinFloor
			}
		}
	}
	return frontierLen >= eff
}

// chooseBottomUp decides one hop's expansion direction. A forced
// DirectionBottomUp without the prerequisites is an error; DirectionAuto
// applies the Beamer-style density test against the label's statistics:
// go bottom-up when the frontier's estimated outgoing edges exceed
// alpha × the hinted candidate count (probing candidates beats scanning
// the frontier) and make up more than 1/beta of the label's total edges
// (the frontier genuinely covers the label, so candidate probes hit).
func (t *Traversal) chooseBottomUp(g *Graph, frontierLen int, k travKnobs, ls LabelStats) (bool, error) {
	canBU := t.dedup && g != nil && !g.opts.DisableReverseIndex
	switch t.direction {
	case DirectionTopDown:
		return false, nil
	case DirectionBottomUp:
		if !canBU {
			return false, ErrBottomUpUnsupported
		}
		return true, nil
	}
	if !canBU || k.buAlpha <= 0 || frontierLen < bottomUpMinFrontier {
		return false, nil
	}
	if ls.Targets <= 0 || ls.Lists <= 0 {
		return false, nil
	}
	avg := ls.AvgDegree
	if avg < 1 {
		avg = 1
	}
	mf := float64(frontierLen) * avg
	return mf > k.buAlpha*float64(ls.Targets) && k.buBeta*mf > float64(ls.Edges), nil
}

// run executes the traversal. ex, when non-nil, receives per-hop runtime
// statistics (RunExplain); it must come from t.Explain() so its Hops line
// up with t.steps. Observability — the lg_traversal_* histograms, a
// sampled "traverse" span with per-hop children, and slow-op capture —
// engages when r is backed by a graph whose instruments are enabled.
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
	frontier := append([]VertexID(nil), t.src...)
	lastExec := len(t.plan) - 1
	par := t.effectiveParallelism(r)
	if ex != nil {
		ex.Parallelism = par
	}
	var g *Graph
	if gs, ok := r.(graphSource); ok {
		g = gs.graph()
	}
	stats, _ := r.(degreeStatsSource)
	knobs := resolveKnobs(g)
	// One seen set and one scan iterator serve the whole run: the set's
	// pages and the iterator are reused hop after hop, so a multi-hop
	// traversal stops allocating once it has touched its working set. The
	// set is made by the first hop that dedups, with one stripe — a
	// sequential hop owns it and takes no stripe lock — and is traded for
	// one striped for the worker pool by the first parallel hop. The
	// frontier bitset for bottom-up hops is allocated on first use.
	var (
		seen        *sparsebit.Set
		seenStripes int
		fbits       *sparsebit.Set
	)
	seq := seqExpander{r: r}
	seq.its, seq.hasInto = r.(edgeIterSource)
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
		switch es.kind {
		case stepFilter:
			var err error
			if es.filterPar && t.engageParallel(len(frontier), par, knobs, 0) {
				ms := t.hopMorselSize(len(frontier), par, knobs, 0)
				if hp != nil {
					hp.Parallel = true
					hp.Workers = par
					hp.MorselSize = ms
					hp.Morsels = (len(frontier) + ms - 1) / ms
				}
				frontier, err = filterFrontierParallel(ctx, r, frontier, es.filter, par, ms)
				if err != nil {
					return nil, err
				}
			} else {
				kept := frontier[:0]
				for _, v := range frontier {
					if es.filter(r, v) {
						kept = append(kept, v)
					}
				}
				frontier = kept
			}
			if hp != nil {
				hp.FrontierOut = len(frontier)
				hp.DurationNs = time.Since(hopStart).Nanoseconds()
			}
		case stepFilterDst:
			// A standalone destination predicate (no hop to fuse into):
			// a pure in-place sweep.
			kept := frontier[:0]
			for _, v := range frontier {
				if es.keep(v) {
					kept = append(kept, v)
				}
			}
			frontier = kept
			if hp != nil {
				hp.FrontierOut = len(frontier)
				hp.DurationNs = time.Since(hopStart).Nanoseconds()
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
			bottomUp, err := t.chooseBottomUp(g, len(frontier), knobs, ls)
			if err != nil {
				return nil, err
			}
			parallel := !bottomUp && t.engageParallel(len(frontier), par, knobs, ls.AvgDegree)
			if t.dedup && !bottomUp {
				stripes := 1
				if parallel {
					stripes = 4 * par
				}
				if seenStripes < stripes {
					seen, seenStripes = sparsebit.New(stripes), stripes
				} else {
					seen.Reset() // dedup is per hop
				}
			}
			_, hsp := obs.StartSpan(ctx, "traverse.hop")
			var (
				next []VertexID
				hits int64
			)
			if bottomUp {
				if hp != nil {
					hp.Direction = "bottomup"
				}
				if fbits == nil {
					// Probed lock-free (Peek) by workers against a frozen
					// set; one stripe suffices since the build is
					// single-threaded.
					fbits = sparsebit.New(1)
				}
				if hsp != nil {
					hsp.SetAttr(obs.String("direction", "bottomup"))
				}
				next, err = t.expandBottomUp(ctx, r, g, frontier, es, fbits, capped, par, hp)
			} else if parallel {
				ms := t.hopMorselSize(len(frontier), par, knobs, ls.AvgDegree)
				if hp != nil {
					hp.Direction = "topdown"
					hp.Parallel = true
					hp.Workers = par
					hp.MorselSize = ms
					hp.Morsels = (len(frontier) + ms - 1) / ms
				}
				if hsp != nil {
					hsp.SetAttr(obs.String("engine", "morsel"),
						obs.Int("workers", int64(par)), obs.Int("morselSize", int64(ms)))
				}
				next, hits, err = t.expandParallel(ctx, r, frontier, es.label, es.keep, capped, par, seen, ms, hp != nil)
			} else {
				if hp != nil {
					hp.Direction = "topdown"
				}
				next = make([]VertexID, 0, t.nextCap(len(frontier), ls.AvgDegree, capped))
				next, hits, err = seq.expand(ctx, t, frontier, next, es.label, es.keep, capped, seen, hp != nil)
			}
			if hp != nil {
				hp.DedupHits = hits
				hp.FrontierOut = len(next)
				hp.DurationNs = time.Since(hopStart).Nanoseconds()
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
				hsp.SetAttr(obs.Int("frontierIn", int64(len(frontier))),
					obs.Int("frontierOut", int64(len(next))), obs.Int("dedupHits", hits))
				if err != nil {
					hsp.SetAttr(obs.String("error", err.Error()))
				}
			}
			hsp.End()
			if err != nil {
				return nil, err
			}
			frontier = next
		}
	}
	if t.limit > 0 && len(frontier) > t.limit {
		frontier = frontier[:t.limit]
	}
	return frontier, nil
}

// seqExpander runs one hop's scans sequentially, reusing a single
// iterator across hops (the pre-parallel engine's inner loop, split out
// so run can time and annotate hops uniformly).
type seqExpander struct {
	r       Reader
	its     edgeIterSource
	hasInto bool
	it      EdgeIter
}

// nextCap sizes a sequential hop's output from the label's mean degree, so
// the hop appends into one allocation instead of regrowing it once per
// doubling. It is an estimate — dedup and filters shrink the real output,
// hubs outgrow it — so it is bounded by what the hop may return at all and
// by maxNextCap.
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

// expand performs one sequential stepOut into next (empty, sized by the
// caller). keep, when non-nil, is the fused destination predicate, pushed
// into the TEL scan loop. countHits enables dedup-hit counting (EXPLAIN);
// hits is 0 otherwise. Hops are barriers — a parallel hop's workers have
// all returned before the next hop starts — so while this runs its
// goroutine owns seen and probes it without the stripe locks.
func (s *seqExpander) expand(ctx context.Context, t *Traversal, frontier, next []VertexID, label Label, keep func(VertexID) bool, capped bool, seen *sparsebit.Set, countHits bool) (_ []VertexID, hits int64, err error) {
	var keep64 func(int64) bool
	if keep != nil {
		keep64 = func(d int64) bool { return keep(VertexID(d)) }
	}
	for _, v := range frontier {
		if err := ctx.Err(); err != nil {
			return nil, hits, err
		}
		itp := &s.it
		if s.hasInto {
			s.its.neighborsInto(itp, v, label)
		} else {
			itp = s.r.Neighbors(v, label)
		}
		for itp.advance(keep64) {
			d := itp.Dst()
			if t.dedup && seen.TestAndSetOwned(int64(d)) {
				if countHits {
					hits++
				}
				continue
			}
			next = append(next, d)
			if t.maxFrontier > 0 && len(next) > t.maxFrontier {
				return nil, hits, ErrFrontierTooLarge
			}
			if capped && len(next) >= t.limit {
				return next, hits, nil
			}
		}
	}
	return next, hits, nil
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
// the morsel worker pool, preserving frontier order (each worker marks its
// range; the survivors are compacted in place afterwards) — bit-identical
// to the sequential sweep for pure predicates.
func filterFrontierParallel(ctx context.Context, r Reader, frontier []VertexID, pred func(Reader, VertexID) bool, workers, morselSize int) ([]VertexID, error) {
	marks := make([]bool, len(frontier))
	if err := morselMark(ctx, len(frontier), workers, morselSize, func(i int) bool {
		return pred(r, frontier[i])
	}, marks); err != nil {
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
