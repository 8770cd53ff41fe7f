package core

// Traversal EXPLAIN: the compiled hop plan, optionally annotated with
// per-hop runtime statistics when the plan is executed. Served over HTTP
// via GET /v1/traverse?explain=plan (plan only) and ?explain=1 (execute
// and annotate). Every adaptive decision the executor makes — expansion
// direction, predicate pushdown and reordering, parallel engagement,
// morsel widths, budget cuts — is attributed here; the counters behind
// these fields are per-morsel locals, so a plain Run pays nothing shared.

// HopPlan describes one compiled step of a traversal, plus its runtime
// behavior when the plan was executed (Explain.Executed).
type HopPlan struct {
	Step  int    `json:"step"`
	Kind  string `json:"kind"`            // "out", "filter" or "filterDst"
	Label Label  `json:"label,omitempty"` // out hops

	// Capped marks the hop whose scans short-circuit as soon as Limit
	// results exist: the final *executed* step of a Limit-ed traversal —
	// with pushdown, possibly an out hop whose trailing FilterDst
	// predicates were fused into it.
	Capped bool `json:"capped,omitempty"`

	// Pushdown counts the FilterDst predicates fused into this out hop's
	// scan loop; Reordered marks that at least one of them textually
	// followed a Filter step it now runs before. Fused/FusedInto mark the
	// donor FilterDst steps themselves: they do not execute (their
	// runtime fields stay zero) — the hop at FusedInto evaluates them.
	Pushdown  int  `json:"pushdown,omitempty"`
	Reordered bool `json:"reordered,omitempty"`
	Fused     bool `json:"fused,omitempty"`
	FusedInto int  `json:"fusedInto,omitempty"`

	// Runtime statistics — meaningful only when Explain.Executed.

	// Direction reports the expansion strategy the hop actually used:
	// "topdown" (scan frontier adjacency lists forward) or "bottomup"
	// (probe hinted candidates against the frontier bitset).
	Direction   string `json:"direction,omitempty"`
	FrontierIn  int    `json:"frontierIn"`
	FrontierOut int    `json:"frontierOut"`
	// DedupHits counts destinations dropped as already seen. It is a
	// top-down counter by construction: a bottom-up pass emits each
	// candidate at most once and never consults the dedup set — its cost
	// shows up as Candidates/HintProbes instead.
	DedupHits int64 `json:"dedupHits,omitempty"`
	// Candidates / HintProbes attribute bottom-up work: hinted candidate
	// vertices consulted, and individual source hints probed against the
	// frontier bitset.
	Candidates int64 `json:"candidates,omitempty"`
	HintProbes int64 `json:"hintProbes,omitempty"`
	// IndexBuildUs is the time this hop's direction decision spent building
	// or folding the label's reverse hint index (revindex.go): non-zero only
	// on the hop that paid for one, and part of DurationNs.
	IndexBuildUs int64 `json:"indexBuildUs,omitempty"`
	Parallel     bool  `json:"parallel"`          // step ran on a worker pool
	Workers      int   `json:"workers,omitempty"` // workers the pool started
	MorselSize   int   `json:"morselSize,omitempty"`
	Morsels      int   `json:"morsels,omitempty"`
	// BudgetCut names the budget that stopped the hop early: "limit"
	// (enough results) or "maxFrontier" (aborted with
	// ErrFrontierTooLarge). Empty when the hop ran to completion.
	BudgetCut  string `json:"budgetCut,omitempty"`
	DurationNs int64  `json:"durationNs,omitempty"`
}

// Explain is a traversal's compiled plan. Built statically by
// Traversal.Explain; RunExplain executes the traversal and fills the
// runtime fields.
type Explain struct {
	Src         []VertexID `json:"src"`
	Dedup       bool       `json:"dedup"`
	Limit       int        `json:"limit,omitempty"`
	MaxFrontier int        `json:"maxFrontier,omitempty"`
	// Direction is the requested expansion strategy: "auto" (decide per
	// hop from degree statistics), "topdown" or "bottomup". Per-hop
	// outcomes land in HopPlan.Direction when executed.
	Direction string `json:"directionRequested,omitempty"`
	// Parallelism is the requested worker width (0 = engine default);
	// executed plans overwrite it with the resolved width for the Reader
	// the traversal actually ran on.
	Parallelism int       `json:"parallelism"`
	Hops        []HopPlan `json:"hops"`

	Executed    bool   `json:"executed"`
	ResultCount int    `json:"resultCount,omitempty"`
	DurationNs  int64  `json:"durationNs,omitempty"`
	Error       string `json:"error,omitempty"`
}

// ran records what the kernel ran a step on, for either direction; one
// worker leaves the pool fields zero, and a nil hp (no EXPLAIN) is a no-op.
func (hp *HopPlan) ran(r hopRun) {
	if hp == nil || r.workers <= 1 {
		return
	}
	hp.Parallel, hp.Workers, hp.MorselSize, hp.Morsels = true, r.workers, r.morselSize, r.morsels
}

func (d Direction) String() string {
	switch d {
	case DirectionTopDown:
		return "topdown"
	case DirectionBottomUp:
		return "bottomup"
	default:
		return "auto"
	}
}

// Explain compiles the traversal into its hop plan without executing it.
// One HopPlan is emitted per builder step, in written order; the plan
// fields (Pushdown, Fused, Reordered, Capped) describe what the compiled
// execution will do with them. The runtime fields (frontier sizes,
// directions, dedup hits, budget cuts) stay zero; use RunExplain to
// execute and annotate.
func (t *Traversal) Explain() *Explain {
	ex := &Explain{
		Src:         append([]VertexID(nil), t.src...),
		Dedup:       t.dedup,
		Limit:       t.limit,
		MaxFrontier: t.maxFrontier,
		Direction:   t.direction.String(),
		Parallelism: t.parallel,
		Hops:        make([]HopPlan, len(t.steps)),
	}
	for si, st := range t.steps {
		hp := &ex.Hops[si]
		hp.Step = si
		switch st.kind {
		case stepOut:
			hp.Kind = "out"
			hp.Label = st.label
		case stepFilter:
			hp.Kind = "filter"
		case stepFilterDst:
			hp.Kind = "filterDst"
		}
	}
	lastExec := len(t.plan) - 1
	for pi := range t.plan {
		es := &t.plan[pi]
		hp := &ex.Hops[es.si]
		if es.kind != stepOut {
			continue
		}
		hp.Capped = t.limit > 0 && pi == lastExec
		hp.Pushdown = es.pushdown
		hp.Reordered = es.reordered
		for _, fsi := range es.fusedSi {
			ex.Hops[fsi].Fused = true
			ex.Hops[fsi].FusedInto = es.si
		}
	}
	return ex
}
