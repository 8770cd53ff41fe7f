package core

// The reverse hint index: for a label, the sources that have ever committed
// an edge src -[label]-> dst, grouped by dst. It is what makes in-edge
// scans (Snapshot.ScanIn) and bottom-up expansion (bottomup.go) possible on
// a layout that only materialises out-adjacency.
//
// Nothing is kept until somebody asks. A label nobody has scanned in-edges
// of has no index at all, and revAdd — called for every edge write — is a
// nil check. The first in-scan of a label builds a *generation*
// {main, over}:
//
//   - main is an immutable CSR: the distinct destinations in first-seen
//     order (the bottom-up candidate registry), one offset per destination,
//     and one contiguous source array, so an in-scan is a map lookup and
//     then a purely sequential run, like an out-scan;
//   - over (the overlay) is the only thing revAdd ever writes: the hints of
//     edges written since the build started and not already in main.
//
// When the overlay outgrows 1/revFoldFrac of main, the next in-scan folds
// it: the same build function runs again and a fresh main replaces both.
// Nothing is ever merged in place.
//
// Hints are a superset. main is built from every committed TEL entry, dead
// ones included, and overlay hints are never removed, so an aborted write
// or a later delete leaves a stale hint behind. A hint proves nothing by
// itself: every consumer confirms through the forward read path
// (GetEdge), which applies full MVCC visibility at the reader's epoch —
// own writes inside a Tx, AsOf epochs on a pinned snapshot. A stale hint
// costs one Bloom probe and can never surface a phantom edge.
//
// The invariant, and why the build protocol keeps it:
//
//	Every edge visible to a snapshot whose in-scan starts after a build
//	or fold returns has its source in main ∪ over (∪ prev, mid-fold) of
//	the generation that scan loads.
//
// build (in revReady, one at a time under revMu) does three things in order:
//
//  1. publish {old main, fresh over, prev: old over} — from this store on,
//     every revAdd that loads the pointer hints into the fresh overlay;
//  2. scan every source's TEL of the label under that source's vertex
//     lock, exactly as compactChunk takes them, into a new main;
//  3. publish {new main, over}.
//
// Take an edge e written by W, which holds its source's lock s from before
// the append until after its commit is applied. W's revAdd loads the
// generation pointer under s, after e's list is in the label index — a list
// W creates gets there at commit, and W hints its edges again then
// (Tx.place). Either that load follows store 1 — then e's
// hint is in the fresh overlay, which every generation from 1 onward
// carries until a later fold's scan has absorbed it by the same argument —
// or it precedes store 1, and then step 2 cannot have held s before W did
// (its unlock of s would order store 1 before W's load), so the scan takes
// s after W released it and finds e committed in the TEL. That second case
// includes the writer that appended, found no generation, and commits
// after store 1: the scan waits on its lock. Entries a live or future
// snapshot can see are never compacted away (the floor honours pinned
// epochs and HistoryRetention), so every later scan finds e too; hints of
// entries compaction did drop are merely stale. revAdd may skip a pair main
// already holds only while no fold is in flight (prev == nil): a writer
// that sees a stable generation is, by the argument above, scanned after it
// commits by every later fold.
//
// The build takes vertex locks, so a caller that holds any — a *Tx in its
// work phase — must never start or wait for one (revReady's mayLock):
// under DirectionAuto it stays top-down until someone else has built the
// label, and a forced DirectionBottomUp fails with ErrBottomUpUnsupported.
//
// The index is keyed by label (dense, like the per-label statistics) and
// sparse in dst: destination IDs are arbitrary int64s — LinkBench writes
// links against a 2^40 ID space — so main locates a destination's run
// through a hash map, and the candidate registry makes the bottom-up sweep
// O(hinted destinations), wherever in the ID space they live. Recovery
// builds nothing: a reopened graph has no generation until asked.

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// revFoldFrac: an overlay holding more than 1/revFoldFrac of main's
	// hints (and more than revFoldMin, so small graphs do not rebuild on
	// every write) is folded by the next in-scan. A fold rescans the
	// label, so each overlay hint costs at most revFoldFrac entry reads.
	revFoldFrac = 8
	revFoldMin  = 256
	// revSeenThreshold is the hint-list length at which a revAdj switches
	// from linear-scan dedup to a map.
	revSeenThreshold = 16
)

// revMain is a generation's immutable CSR.
type revMain struct {
	pos  map[VertexID]int // dst -> index into dsts and off
	dsts []VertexID       // candidate registry: distinct destinations, first-seen order
	off  []int            // len(dsts)+1; dst i's sources are srcs[off[i]:off[i+1]]
	srcs []VertexID       // each run ascending and duplicate-free
}

// run returns dst's sources in main; nil when it has none.
func (m *revMain) run(dst VertexID) []VertexID {
	if i, ok := m.pos[dst]; ok {
		return m.srcs[m.off[i]:m.off[i+1]]
	}
	return nil
}

func inRun(run []VertexID, src VertexID) bool {
	_, ok := slices.BinarySearch(run, src)
	return ok
}

// revAdj is one destination's hint list in an overlay.
type revAdj struct {
	mu   sync.RWMutex
	srcs []VertexID
	seen map[VertexID]struct{} // nil until srcs outgrows revSeenThreshold
}

// hasLocked reports whether src is hinted; the caller holds mu.
func (ra *revAdj) hasLocked(src VertexID) bool {
	if ra.seen != nil {
		_, ok := ra.seen[src]
		return ok
	}
	return slices.Contains(ra.srcs, src)
}

func (ra *revAdj) has(src VertexID) bool {
	ra.mu.RLock()
	ok := ra.hasLocked(src)
	ra.mu.RUnlock()
	return ok
}

// add appends src unless it is already hinted, and reports whether it did.
func (ra *revAdj) add(src VertexID) bool {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if ra.hasLocked(src) {
		return false
	}
	if ra.seen == nil && len(ra.srcs) >= revSeenThreshold {
		ra.seen = make(map[VertexID]struct{}, 2*len(ra.srcs))
		for _, s := range ra.srcs {
			ra.seen[s] = struct{}{}
		}
	}
	if ra.seen != nil {
		ra.seen[src] = struct{}{}
	}
	ra.srcs = append(ra.srcs, src)
	return true
}

// snapshot returns the current hint slice. Appends only ever extend the
// list past the returned length (elements are never rewritten), so the
// slice header captured under the lock stays valid to read forever.
func (ra *revAdj) snapshot() []VertexID {
	ra.mu.RLock()
	s := ra.srcs
	ra.mu.RUnlock()
	return s
}

// revOverlay holds the hints written since a build started, by destination.
type revOverlay struct {
	index       sync.Map // VertexID (dst) -> *revAdj
	dsts, hints atomic.Int64
}

func (ov *revOverlay) adj(dst VertexID) *revAdj {
	if v, ok := ov.index.Load(dst); ok {
		return v.(*revAdj)
	}
	return nil
}

func (ov *revOverlay) add(dst, src VertexID) bool {
	v, ok := ov.index.Load(dst)
	if !ok {
		var loaded bool
		if v, loaded = ov.index.LoadOrStore(dst, &revAdj{}); !loaded {
			ov.dsts.Add(1)
		}
	}
	if !v.(*revAdj).add(src) {
		return false
	}
	ov.hints.Add(1)
	return true
}

// revGen is one published state of a label's index; see the file comment.
type revGen struct {
	main *revMain    // nil only while the label's first build scans
	over *revOverlay // what revAdd writes
	prev *revOverlay // the overlay a fold in flight is absorbing; nil otherwise
}

// ready reports whether in-scans may use the generation.
func (gen *revGen) ready() bool { return gen != nil && gen.main != nil }

func (gen *revGen) overgrown() bool {
	n := gen.over.hints.Load()
	return n > revFoldMin && n*revFoldFrac > int64(len(gen.main.srcs))
}

// targets is the candidate count the direction test weighs the frontier
// against; overlay destinations main already holds count twice, which only
// makes bottom-up a little shyer.
func (gen *revGen) targets() int64 {
	n := int64(len(gen.main.dsts)) + gen.over.dsts.Load()
	if gen.prev != nil {
		n += gen.prev.dsts.Load()
	}
	return n
}

// each calls fn with every hinted source of dst, each once, until fn
// returns false: main's run, then what the overlays add to it.
func (gen *revGen) each(dst VertexID, fn func(src VertexID) bool) {
	run := gen.main.run(dst)
	for _, s := range run {
		if !fn(s) {
			return
		}
	}
	var pa *revAdj
	if gen.prev != nil {
		if pa = gen.prev.adj(dst); pa != nil {
			for _, s := range pa.snapshot() {
				if !inRun(run, s) && !fn(s) {
					return
				}
			}
		}
	}
	if a := gen.over.adj(dst); a != nil {
		for _, s := range a.snapshot() {
			if inRun(run, s) || (pa != nil && pa.has(s)) {
				continue
			}
			if !fn(s) {
				return
			}
		}
	}
}

// candidates returns the bottom-up candidate set, each destination once:
// main's registry, followed — in a copy — by the overlay destinations it
// lacks.
func (gen *revGen) candidates() []VertexID {
	out := gen.main.dsts[:len(gen.main.dsts):len(gen.main.dsts)]
	extra := func(ov, older *revOverlay) {
		ov.index.Range(func(k, _ any) bool {
			d := k.(VertexID)
			if _, ok := gen.main.pos[d]; !ok && (older == nil || older.adj(d) == nil) {
				out = append(out, d)
			}
			return true
		})
	}
	if gen.prev != nil {
		extra(gen.prev, nil)
	}
	extra(gen.over, gen.prev)
	return out
}

// revAdd records the hint "src points at dst along label". Called with
// src's vertex lock held: from the edge write path (work phase) and from
// the live replication apply. A label nobody has asked in-edges of has no
// generation, and the call is this nil check.
func (g *Graph) revAdd(dst VertexID, label Label, src VertexID) {
	gen := g.rev.Get(int64(label))
	if gen == nil {
		return
	}
	if gen.prev == nil && gen.main != nil && inRun(gen.main.run(dst), src) {
		return
	}
	if gen.over.add(dst, src) {
		g.revStats.overlayHints.Add(1)
	}
}

// revReady returns label's generation for an in-scan, first building it if
// the label has none and folding it if the overlay has outgrown main (the
// protocol is the file comment's); built is how long this call spent doing
// either. mayLock says the caller holds no vertex lock: a caller that does
// never builds or waits for a build, and gets nil while the label has no
// built generation. One build runs at a time graph-wide: a first build
// waits its turn, a fold that finds the mutex taken leaves the work to the
// next in-scan.
func (g *Graph) revReady(label Label, mayLock bool) (gen *revGen, built time.Duration) {
	if uint64(label) >= MaxLabel { // no edge carries it, and g.rev has no slot for it
		return &revGen{main: &revMain{}, over: &revOverlay{}}, 0
	}
	old := g.rev.Get(int64(label))
	switch { // the last two cases take revMu, or give up
	case old.ready() && (!mayLock || !old.overgrown()):
		return old, 0
	case !mayLock:
		return nil, 0
	case !old.ready():
		g.revMu.Lock()
	case !g.revMu.TryLock():
		return old, 0
	}
	defer g.revMu.Unlock()
	if old = g.rev.Get(int64(label)); old.ready() && !old.overgrown() {
		return old, 0 // somebody else got there first
	}
	t0 := time.Now()
	gen = &revGen{over: &revOverlay{}}
	if old != nil {
		gen.main, gen.prev = old.main, old.over
	}
	g.rev.Set(int64(label), gen)
	gen = &revGen{main: g.revScan(label), over: gen.over}
	g.rev.Set(int64(label), gen)

	built = time.Since(t0)
	g.revStats.builds.Add(1)
	g.ob.revBuild.Record(built)
	g.revStats.mainHints.Add(int64(len(gen.main.srcs)))
	if old != nil { // the fold absorbed both
		g.revStats.mainHints.Add(-int64(len(old.main.srcs)))
		g.revStats.overlayHints.Add(-old.over.hints.Load())
	}
	return gen, built
}

// revScan builds a main from the label's TELs: every committed entry, dead
// ones included, each source read under its vertex lock. Sources are
// visited once each, ascending, so a (dst, src) pair that repeats — an edge
// upserted or re-inserted — is recognised by its destination's last counted
// source, and the stable counting sort by destination leaves every run
// ascending.
func (g *Graph) revScan(label Label) *revMain {
	m := &revMain{pos: make(map[VertexID]int)}
	type hint struct {
		slot int
		src  VertexID
	}
	type tally struct {
		n    int      // hints counted, then the next free index of the run
		last VertexID // the last source counted
	}
	hints := make([]hint, 0, g.LabelDegreeStats(label).Entries)
	var slots []tally
	// Every slot of the edge index, not just [0, nextVertex): a source need
	// not be an allocated vertex. A source with no TEL for the label is
	// skipped without its lock: a transaction that creates one adds it to
	// the label index at commit and only then hints its edges again
	// (Tx.place), so either the list was in the index before store 1 and
	// this scan finds it, or the hints load this generation and land in
	// its overlay.
	for v, end := VertexID(0), VertexID(g.eindex.Cap()); v < end; v++ {
		if _, ok := g.telFor(v, label); !ok {
			continue
		}
		g.locks.Lock(uint64(v))
		t, _ := g.telFor(v, label)
		for i, n := 0, t.Len(); i < n; i++ {
			dst := VertexID(t.Dst(i))
			slot, ok := m.pos[dst]
			if !ok {
				slot = len(m.dsts)
				m.pos[dst] = slot
				m.dsts = append(m.dsts, dst)
				slots = append(slots, tally{last: -1})
			}
			if slots[slot].last != v {
				slots[slot].last = v
				slots[slot].n++
				hints = append(hints, hint{slot, v})
			}
		}
		g.locks.Unlock(uint64(v))
	}
	m.off = make([]int, len(m.dsts)+1)
	for i := range slots {
		m.off[i+1] = m.off[i] + slots[i].n
		slots[i].n = m.off[i]
	}
	m.srcs = make([]VertexID, len(hints))
	for _, h := range hints {
		m.srcs[slots[h.slot].n] = h.src
		slots[h.slot].n++
	}
	return m
}
