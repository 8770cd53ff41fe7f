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
//     then a purely sequential run, like an out-scan. Sources and offsets
//     are 32-bit, 4 B a hint: a source is an edge-index slot, and writes
//     refuse sources at or past MaxVertexID = 2^32 (ErrOutOfRange), which
//     revScan asserts. Destinations stay 64-bit — LinkBench links to IDs up
//     to 2^40 — and carry no records, so they have no bound;
//   - over (the overlay) is the only thing revAdd ever writes: the hints of
//     edges written since the build started and not already in main, as
//     one log of 8-byte hints under one lock, chained per destination.
//
// When the overlay outgrows 1/revFoldFrac of main, it is folded: the same
// build function runs again and a fresh main replaces both. Two sites ask
// for a fold, with the same rule and the same call (revReady): the next
// in-scan, and the next maintenance pass boundary (MaintEndPass), so an
// overlay nobody in-scans is folded too. Nothing is ever merged in place.
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
// build (in revReady, one at a time under revMu; a fold that finds revMu
// taken is left to the next site that asks) does three things in order:
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
// work phase — must never start or wait for one (revReady's mayLock; the
// maintenance scheduler holds none at a pass boundary):
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
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

const (
	// revFoldFrac: an overlay holding more than 1/revFoldFrac of main's
	// hints (and more than revFoldMin, so small graphs do not rebuild on
	// every write) is folded by the next in-scan or maintenance pass
	// boundary. A fold rescans the label, so each overlay hint costs at
	// most revFoldFrac entry reads.
	revFoldFrac = 8
	revFoldMin  = 256
	// revSeenThreshold is the run length at which an overlay destination
	// switches from a chain walk to the seen set to recognise a repeat.
	revSeenThreshold = 16
)

// revMain is a generation's immutable CSR. Sources and offsets are 32-bit:
// a source is an edge-index slot, below MaxVertexID.
type revMain struct {
	pos  map[VertexID]int // dst -> index into dsts and off
	dsts []VertexID       // candidate registry: distinct destinations, first-seen order
	off  []uint32         // len(dsts)+1; dst i's sources are srcs[off[i]:off[i+1]]
	srcs []uint32         // each run ascending and duplicate-free
}

// run returns dst's sources in main; nil when it has none.
func (m *revMain) run(dst VertexID) []uint32 {
	if i, ok := m.pos[dst]; ok {
		return m.srcs[m.off[i]:m.off[i+1]]
	}
	return nil
}

func inRun(run []uint32, src uint32) bool {
	_, ok := slices.BinarySearch(run, src)
	return ok
}

// revTable is an open-addressing hash table with linear probing, kept at
// most 3/4 full. Entries are nonzero uint64s — a key, or an index its
// owner resolves to one — and a zero slot is empty. At 8 B a slot it holds
// an entry in 11–21 B, where a Go map measures about 33.
type revTable struct {
	slots []uint64
	n     int
}

// revHash mixes k's bits into the low ones the table indexes by
// (MurmurHash3's finaliser).
func revHash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
}

// find returns the slot on hash h's probe sequence that holds an entry eq
// accepts, or else the empty slot that ends the sequence.
func (t *revTable) find(h uint64, eq func(e uint64) bool) *uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if e := t.slots[i]; e == 0 || eq(e) {
			return &t.slots[i]
		}
	}
}

// has reports whether an entry on hash h's probe sequence is one eq accepts.
func (t *revTable) has(h uint64, eq func(e uint64) bool) bool {
	return t.n > 0 && *t.find(h, eq) != 0
}

// add stores e, which must not be in the table yet, first doubling the
// table — rehashing each entry by hash — if e would make it over 3/4 full.
func (t *revTable) add(e, h uint64, hash func(e uint64) uint64) {
	if (t.n+1)*4 > len(t.slots)*3 {
		old := t.slots
		t.slots = make([]uint64, max(2*len(old), 16))
		for _, o := range old {
			if o != 0 {
				*t.find(hash(o), func(uint64) bool { return false }) = o
			}
		}
	}
	*t.find(h, func(uint64) bool { return false }) = e
	t.n++
}

// revOverlay holds the hints written since a build started, under one
// lock. The hints are one append-only log in write order, each chained to
// the previous hint of its destination, so a hint costs 8 B and a
// destination a run record and a table slot. A hint in the log is never
// rewritten: a reader that took a destination's newest hint and the log
// under the lock walks the chain without it.
type revOverlay struct {
	mu   sync.RWMutex
	pos  revTable      // run index + 1, by destination
	runs []revOverRun  // one per destination, first-seen order
	log  []revOverHint // every hint, in write order
	seen revTable      // revSeenKey of every hint of a run past revSeenThreshold

	dsts, hints atomic.Int64 // len(runs), len(log), for readers without the lock
}

type revOverRun struct {
	dst     VertexID
	last, n int32 // the newest hint's index in log, and the run's length
}

type revOverHint struct {
	src  uint32
	prev int32 // the destination's previous hint in log; -1 for its first
}

func revSeenKey(r int32, src uint32) uint64 { return (uint64(r)<<32 | uint64(src)) + 1 }

// dstHash is the hash a pos entry is filed under.
func (ov *revOverlay) dstHash(e uint64) uint64 { return revHash(uint64(ov.runs[e-1].dst)) }

// runOf returns dst's run index, or -1 if it has none; the caller holds mu.
func (ov *revOverlay) runOf(dst VertexID) int32 {
	if ov.pos.n == 0 {
		return -1
	}
	return int32(*ov.pos.find(revHash(uint64(dst)), func(e uint64) bool { return ov.runs[e-1].dst == dst })) - 1
}

// hasLocked reports whether run r holds src; the caller holds mu.
func (ov *revOverlay) hasLocked(r int32, src uint32) bool {
	run := ov.runs[r]
	if run.n >= revSeenThreshold {
		k := revSeenKey(r, src)
		return ov.seen.has(revHash(k), func(e uint64) bool { return e == k })
	}
	for i := run.last; i >= 0; i = ov.log[i].prev {
		if ov.log[i].src == src {
			return true
		}
	}
	return false
}

// empty reports, without the lock, whether the overlay holds no hint —
// as it does right after a build or fold — so the bottom-up workers'
// per-candidate reads skip the shared lock. A hint whose edge a reader can
// see was counted before its commit, so the reader never misses it here.
func (ov *revOverlay) empty() bool { return ov.hints.Load() == 0 }

// has reports whether dst's run holds src.
func (ov *revOverlay) has(dst VertexID, src uint32) bool {
	if ov.empty() {
		return false
	}
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	r := ov.runOf(dst)
	return r >= 0 && ov.hasLocked(r, src)
}

// holds reports whether dst has a run.
func (ov *revOverlay) holds(dst VertexID) bool {
	if ov.empty() {
		return false
	}
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	return ov.runOf(dst) >= 0
}

// chain returns the log and dst's newest hint in it (-1: none); follow
// prev from there for the rest of the run.
func (ov *revOverlay) chain(dst VertexID) ([]revOverHint, int32) {
	if ov.empty() {
		return nil, -1
	}
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	if r := ov.runOf(dst); r >= 0 {
		return ov.log, ov.runs[r].last
	}
	return nil, -1
}

// see files a hint of run r in the seen set; the caller holds mu.
func (ov *revOverlay) see(r int32, src uint32) {
	k := revSeenKey(r, src)
	ov.seen.add(k, revHash(k), revHash)
}

// add appends the hint unless dst's run already holds src, and reports
// whether it did.
func (ov *revOverlay) add(dst VertexID, src uint32) bool {
	ov.mu.Lock()
	defer ov.mu.Unlock()
	r := ov.runOf(dst)
	switch {
	case r < 0:
		r = int32(len(ov.runs))
		ov.runs = append(ov.runs, revOverRun{dst: dst, last: -1})
		ov.pos.add(uint64(r)+1, revHash(uint64(dst)), ov.dstHash)
		ov.dsts.Add(1)
	case ov.hasLocked(r, src):
		return false
	}
	if len(ov.log) == math.MaxInt32 {
		panic("livegraph: reverse index overlay holds 2^31 hints")
	}
	run := &ov.runs[r]
	ov.log = append(ov.log, revOverHint{src: src, prev: run.last})
	run.last = int32(len(ov.log) - 1)
	run.n++
	switch {
	case run.n == revSeenThreshold:
		for i := run.last; i >= 0; i = ov.log[i].prev {
			ov.see(r, ov.log[i].src)
		}
	case run.n > revSeenThreshold:
		ov.see(r, src)
	}
	ov.hints.Add(1)
	return true
}

// appendNew appends to out the overlay's destinations that neither main
// nor older (if not nil) holds. A run's dst is written once, before the
// run is published under the lock, so the loop reads it without the lock.
func (ov *revOverlay) appendNew(out []VertexID, main *revMain, older *revOverlay) []VertexID {
	ov.mu.RLock()
	runs := ov.runs
	ov.mu.RUnlock()
	for i := range runs {
		d := runs[i].dst
		if _, ok := main.pos[d]; !ok && (older == nil || !older.holds(d)) {
			out = append(out, d)
		}
	}
	return out
}

// bytes estimates main's heap from its lengths and capacities. A Go map
// holds a control byte beside each 16 B slot and measures about half full.
func (m *revMain) bytes() int64 {
	return int64(len(m.pos))*2*17 + int64(cap(m.dsts))*8 + int64(cap(m.off)+cap(m.srcs))*4
}

// bytes estimates the overlay's heap from its lengths and capacities.
func (ov *revOverlay) bytes() int64 {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	return int64(len(ov.pos.slots)+len(ov.seen.slots))*8 + int64(cap(ov.runs))*int64(unsafe.Sizeof(revOverRun{})) +
		int64(cap(ov.log))*int64(unsafe.Sizeof(revOverHint{}))
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

// bytes estimates the heap the generation holds: main and both overlays.
func (gen *revGen) bytes() int64 {
	var n int64
	for _, ov := range []*revOverlay{gen.over, gen.prev} {
		if ov != nil {
			n += ov.bytes()
		}
	}
	if gen.main != nil {
		n += gen.main.bytes()
	}
	return n
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
		if !fn(VertexID(s)) {
			return
		}
	}
	if gen.prev != nil {
		log, i := gen.prev.chain(dst)
		for ; i >= 0; i = log[i].prev {
			if s := log[i].src; !inRun(run, s) && !fn(VertexID(s)) {
				return
			}
		}
	}
	log, i := gen.over.chain(dst)
	for ; i >= 0; i = log[i].prev {
		s := log[i].src
		if inRun(run, s) || (gen.prev != nil && gen.prev.has(dst, s)) {
			continue
		}
		if !fn(VertexID(s)) {
			return
		}
	}
}

// candidates returns the bottom-up candidate set, each destination once:
// main's registry, followed — in a copy — by the overlay destinations it
// lacks.
func (gen *revGen) candidates() []VertexID {
	out := gen.main.dsts[:len(gen.main.dsts):len(gen.main.dsts)]
	if gen.prev != nil {
		out = gen.prev.appendNew(out, gen.main, nil)
	}
	return gen.over.appendNew(out, gen.main, gen.prev)
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
	s := uint32(src) // the write path keeps sources below MaxVertexID
	if gen.prev == nil && gen.main != nil && inRun(gen.main.run(dst), s) {
		return
	}
	if gen.over.add(dst, s) {
		g.revStats.overlayHints.Add(1)
	}
}

// revBytes estimates the heap every label's reverse index holds.
func (g *Graph) revBytes() int64 {
	var n int64
	g.rev.Each(func(_ int64, gen *revGen) { n += gen.bytes() })
	return n
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
	// Sources are edge-index slots, and writes keep those below
	// MaxVertexID: each fits a 32-bit run.
	if g.eindex.Cap() > MaxVertexID {
		panic("livegraph: edge index reaches past MaxVertexID")
	}
	m := &revMain{pos: make(map[VertexID]int)}
	type hint struct {
		slot int
		src  uint32
	}
	type tally struct {
		n    int      // hints counted, then the next free index of the run
		last VertexID // the last source counted
	}
	hints := make([]hint, 0, g.LabelDegreeStats(label).Entries)
	var slots []tally
	// Every set slot of the edge index, not just [0, nextVertex): a source
	// need not be an allocated vertex. A source with no TEL for the label
	// is skipped without its lock: a transaction that creates one adds it
	// to the label index at commit and only then hints its edges again
	// (Tx.place), so either the list was in the index before store 1 and
	// this scan finds it, or the hints load this generation and land in
	// its overlay.
	g.eindex.Each(func(i int64, _ *labelList) {
		v := VertexID(i)
		if _, ok := g.telFor(v, label); !ok {
			return
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
				hints = append(hints, hint{slot, uint32(v)})
			}
		}
		g.locks.Unlock(uint64(v))
	})
	if len(hints) > math.MaxUint32 {
		panic("livegraph: reverse index run offsets overflow 32 bits")
	}
	m.off = make([]uint32, len(m.dsts)+1)
	for i := range slots {
		m.off[i+1] = m.off[i] + uint32(slots[i].n)
		slots[i].n = int(m.off[i])
	}
	m.srcs = make([]uint32, len(hints))
	for _, h := range hints {
		m.srcs[slots[h.slot].n] = h.src
		slots[h.slot].n++
	}
	return m
}
