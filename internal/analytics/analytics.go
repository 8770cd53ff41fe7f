// Package analytics implements the whole-graph kernels of the paper's §7.4
// evaluation — PageRank, Connected Components, BFS and degree passes —
// over a storage-agnostic View. The same kernels run in-situ on a
// LiveGraph snapshot (no ETL) and on a CSR graph (the Gemini-style engine
// that requires an export first), which is exactly the comparison of
// Table 10.
//
// All kernels dispatch through morsel.Run (internal/morsel) and start no
// goroutine themselves: workers claim fixed-size vertex or frontier morsels
// from an atomic cursor instead of being handed static ranges, so the
// power-law skew of real graphs (one range holding the hubs) load-balances
// itself. BFS additionally shares the traversal engine's lock-striped
// sparse bitset (internal/sparsebit) for its visited set.
package analytics

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"livegraph/internal/baseline/csr"
	"livegraph/internal/core"
	"livegraph/internal/morsel"
	"livegraph/internal/sparsebit"
)

// View is the read-only graph access analytics kernels need.
type View interface {
	// NumVertices returns the size of the vertex ID space.
	NumVertices() int64
	// ScanOut streams v's out-neighbors; fn returning false stops early.
	ScanOut(v int64, fn func(dst int64) bool)
	// OutDegree returns v's out-degree.
	OutDegree(v int64) int
}

// CSRView adapts an immutable CSR graph.
type CSRView struct{ G *csr.Graph }

// NumVertices implements View.
func (v CSRView) NumVertices() int64 { return v.G.NumVertices() }

// ScanOut implements View.
func (v CSRView) ScanOut(src int64, fn func(dst int64) bool) { v.G.ScanNeighbors(src, fn) }

// OutDegree implements View.
func (v CSRView) OutDegree(src int64) int { return v.G.Degree(src) }

// ReaderView adapts any core.Reader — a transaction's view or a pinned
// snapshot — to the kernels' View, so analytics program against the
// unified v2 read surface. N is the vertex-ID space size at the reader's
// epoch (e.g. Snapshot.NumVertices or Graph.NumVertices), which the Reader
// interface deliberately does not carry.
//
// Concurrency follows the wrapped Reader's contract: a *Snapshot supports
// any number of kernel workers, but a *Tx is not safe for concurrent use,
// so kernels over a transaction view must run with workers = 1.
type ReaderView struct {
	R     core.Reader
	N     int64
	Label core.Label
}

// NumVertices implements View.
func (v ReaderView) NumVertices() int64 { return v.N }

// ScanOut implements View.
func (v ReaderView) ScanOut(src int64, fn func(dst int64) bool) {
	it := v.R.Neighbors(core.VertexID(src), v.Label)
	for it.Next() {
		if !fn(int64(it.Dst())) {
			return
		}
	}
}

// OutDegree implements View.
func (v ReaderView) OutDegree(src int64) int {
	return v.R.Degree(core.VertexID(src), v.Label)
}

// SnapshotView adapts a pinned LiveGraph snapshot: analytics run directly
// on the primary store's latest data (the "real-time analytics on fresh
// data" path). It is the callback-based fast path; ReaderView is the
// general adapter over the unified Reader surface.
type SnapshotView struct {
	Snap  *core.Snapshot
	Label core.Label
}

// NumVertices implements View.
func (v SnapshotView) NumVertices() int64 { return v.Snap.NumVertices() }

// ScanOut implements View.
func (v SnapshotView) ScanOut(src int64, fn func(dst int64) bool) {
	v.Snap.ScanNeighbors(core.VertexID(src), v.Label, func(dst core.VertexID, _ []byte) bool {
		return fn(int64(dst))
	})
}

// OutDegree implements View.
func (v SnapshotView) OutDegree(src int64) int {
	return v.Snap.Degree(core.VertexID(src), v.Label)
}

// InView is the optional View extension direction-optimizing BFS needs: a
// way to enumerate *candidate* in-neighbors (a superset is fine — every
// candidate is confirmed with HasEdge) and to confirm a single edge. A
// View that also implements InView unlocks bottom-up levels; plain Views
// run every level top-down.
type InView interface {
	// ScanInCandidates streams a superset of v's in-neighbors; fn
	// returning false stops early.
	ScanInCandidates(v int64, fn func(src int64) bool)
	// HasEdge reports whether the (src → dst) edge exists in this view.
	HasEdge(src, dst int64) bool
}

// ScanInCandidates implements InView over the snapshot's reverse hint
// index.
func (v SnapshotView) ScanInCandidates(dst int64, fn func(src int64) bool) {
	v.Snap.ScanInCandidates(core.VertexID(dst), v.Label, func(src core.VertexID) bool {
		return fn(int64(src))
	})
}

// HasEdge implements InView.
func (v SnapshotView) HasEdge(src, dst int64) bool {
	return v.Snap.HasEdge(core.VertexID(src), v.Label, core.VertexID(dst))
}

// vertexMorsel is the vertex-range morsel width for whole-graph passes:
// wider than a frontier morsel because per-vertex work is smaller and the
// range count should stay well above the worker count for balance.
const vertexMorsel = 2048

// run hands [0,n) to morsel.Run in morsels of the given size on the given
// number of workers (GOMAXPROCS if <= 0). The kernels take no context and
// their bodies never fail, so neither does run.
func run(n, size, workers int, body func(m, lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	//lglint:ignore ctxprop the kernels' public signatures carry no context; nothing blocks on this one
	_ = morsel.Run(context.Background(), n, size, workers, func(_, m, lo, hi int) error {
		body(m, lo, hi)
		return nil
	})
}

// parallelFor runs body over vertexMorsel-sized ranges of [0,n), claimed
// dynamically, so a range of hub vertices stalls one worker instead of
// setting the pass's critical path the way a static 1/workers split does.
func parallelFor(n int64, workers int, body func(lo, hi int64)) {
	run(int(n), vertexMorsel, workers, func(_, lo, hi int) { body(int64(lo), int64(hi)) })
}

// atomicAddFloat64 adds delta to *addr with a CAS loop.
func atomicAddFloat64(addr *uint64, delta float64) {
	for {
		old := atomic.LoadUint64(addr)
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(addr, old, new) {
			return
		}
	}
}

// PageRank runs the classic damped power iteration (d = 0.85) for iters
// iterations using the push model, and returns the final rank vector.
// Dangling mass is redistributed uniformly each iteration.
func PageRank(v View, iters, workers int) []float64 {
	n := v.NumVertices()
	if n == 0 {
		return nil
	}
	const d = 0.85
	rank := make([]float64, n)
	next := make([]uint64, n) // float64 bits, accumulated atomically
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 0
		}
		var danglingBits uint64
		parallelFor(n, workers, func(lo, hi int64) {
			localDangling := 0.0
			for u := lo; u < hi; u++ {
				deg := v.OutDegree(u)
				if deg == 0 {
					localDangling += rank[u]
					continue
				}
				share := rank[u] / float64(deg)
				v.ScanOut(u, func(dst int64) bool {
					atomicAddFloat64(&next[dst], share)
					return true
				})
			}
			atomicAddFloat64(&danglingBits, localDangling)
		})
		dangling := math.Float64frombits(atomic.LoadUint64(&danglingBits))
		base := (1-d)*inv + d*dangling*inv
		parallelFor(n, workers, func(lo, hi int64) {
			for u := lo; u < hi; u++ {
				rank[u] = base + d*math.Float64frombits(next[u])
			}
		})
	}
	return rank
}

// ConnComp computes connected components (treating edges as undirected) by
// parallel label propagation and returns the component label of every
// vertex (the minimum vertex ID in its component).
func ConnComp(v View, workers int) []int64 {
	n := v.NumVertices()
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = int64(i)
	}
	// Atomic min on labels.
	relaxMin := func(i int64, val int64) bool {
		addr := (*int64)(&labels[i])
		for {
			old := atomic.LoadInt64(addr)
			if val >= old {
				return false
			}
			if atomic.CompareAndSwapInt64(addr, old, val) {
				return true
			}
		}
	}
	for {
		var changed atomic.Bool
		parallelFor(n, workers, func(lo, hi int64) {
			for u := lo; u < hi; u++ {
				lu := atomic.LoadInt64(&labels[u])
				v.ScanOut(u, func(dst int64) bool {
					ld := atomic.LoadInt64(&labels[dst])
					if ld < lu {
						if relaxMin(u, ld) {
							changed.Store(true)
							lu = ld
						}
					} else if lu < ld {
						if relaxMin(dst, lu) {
							changed.Store(true)
						}
					}
					return true
				})
			}
		})
		if !changed.Load() {
			return labels
		}
	}
}

// bfsBottomUpFactor is the direction switch's density threshold: a level
// goes bottom-up when frontier × factor exceeds the unvisited count — the
// vertex-count approximation of Beamer's edge-count heuristic, erring
// toward top-down so sparse frontiers never pay a whole-graph sweep.
const bfsBottomUpFactor = 8

// BFS runs a level-synchronous parallel breadth-first search from src and
// returns every vertex's hop distance (-1 when unreachable). When the View
// also implements InView, levels whose frontier is dense against the
// unvisited set run *bottom-up* (Beamer's direction-optimizing BFS):
// instead of expanding every frontier vertex forward, workers sweep the
// unvisited vertices, probe their candidate in-neighbors against a frozen
// frontier bitset, and claim on the first confirmed hit — the distances
// are identical either way (every vertex has exactly one BFS level), only
// the schedule changes. BFSDir forces one direction for A/B runs.
func BFS(v View, src int64, workers int) []int64 {
	return BFSDir(v, src, workers, core.DirectionAuto)
}

// BFSDir is BFS with the per-level direction decision overridden:
// DirectionTopDown never sweeps bottom-up, DirectionBottomUp does so on
// every level after the first (falling back to top-down when the View has
// no InView), DirectionAuto decides per level from frontier density.
func BFSDir(v View, src int64, workers int, dir core.Direction) []int64 {
	n := v.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= n {
		return dist
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	iv, hasIn := v.(InView)
	if dir == core.DirectionTopDown {
		hasIn = false
	}
	visited := sparsebit.New(4 * workers)
	visited.TestAndSet(src)
	dist[src] = 0
	frontier := []int64{src}
	var fbits *sparsebit.Set
	unvisited := n - 1
	for level := int64(1); len(frontier) > 0; level++ {
		bottomUp := hasIn &&
			(dir == core.DirectionBottomUp ||
				int64(len(frontier))*bfsBottomUpFactor > unvisited)
		var next []int64
		if bottomUp {
			if fbits == nil {
				fbits = sparsebit.New(1)
			}
			next = bfsBottomUpLevel(v, iv, dist, visited, fbits, frontier, level, n, workers)
		} else {
			next = bfsTopDownLevel(v, dist, visited, frontier, level, workers)
		}
		unvisited -= int64(len(next))
		frontier = next
	}
	return dist
}

// bfsTopDownLevel expands one level forward: the frontier is partitioned
// into morsels claimed dynamically by the worker pool — the same engine
// one hop of a parallel traversal runs on — with the lock-striped visited
// bitset arbitrating first-visit claims, so a vertex reachable along many
// paths is expanded exactly once. Distances are written only by the
// claiming worker and published to the next level by the pool join, so the
// kernel is race-free without per-vertex atomics on the distance array.
func bfsTopDownLevel(v View, dist []int64, visited *sparsebit.Set, frontier []int64, level int64, workers int) []int64 {
	morsels, _ := morsel.Split(len(frontier), morsel.DefaultSize, workers)
	outs := make([][]int64, morsels)
	run(len(frontier), morsel.DefaultSize, workers, func(m, lo, hi int) {
		var buf []int64
		for _, u := range frontier[lo:hi] {
			v.ScanOut(u, func(dst int64) bool {
				if !visited.TestAndSet(dst) {
					dist[dst] = level
					buf = append(buf, dst)
				}
				return true
			})
		}
		outs[m] = buf
	})
	return morsel.Concat(outs)
}

// bfsBottomUpLevel expands one level in reverse: workers sweep disjoint
// unvisited-vertex ranges, probe each vertex's candidate in-neighbors
// against the frontier bitset (frozen before the pool starts, so the
// probes are lock-free Peeks) and claim it on the first confirmed edge.
// Each vertex belongs to exactly one worker's range, so dist writes and
// the visited marks need no arbitration at all — the level's only shared
// write is the final frontier concatenation under wg join.
func bfsBottomUpLevel(v View, iv InView, dist []int64, visited *sparsebit.Set, fbits *sparsebit.Set, frontier []int64, level, n int64, workers int) []int64 {
	// This goroutine owns fbits until the workers start (levels are
	// barriers), so the build takes no stripe lock.
	fbits.Reset()
	for _, u := range frontier {
		fbits.TestAndSetOwned(u)
	}
	var mu sync.Mutex
	var next []int64
	parallelFor(n, workers, func(lo, hi int64) {
		var buf []int64
		for c := lo; c < hi; c++ {
			if dist[c] >= 0 {
				continue
			}
			found := false
			iv.ScanInCandidates(c, func(src int64) bool {
				if !fbits.Peek(src) {
					return true
				}
				if !iv.HasEdge(src, c) {
					return true
				}
				found = true
				return false
			})
			if found {
				dist[c] = level
				visited.TestAndSet(c)
				buf = append(buf, c)
			}
		}
		if len(buf) > 0 {
			mu.Lock()
			next = append(next, buf...)
			mu.Unlock()
		}
	})
	return next
}

// Degrees computes every vertex's out-degree in one morsel-parallel pass —
// the degree-distribution building block (and the cheapest whole-graph
// scan there is, so it doubles as a snapshot scan-rate probe).
func Degrees(v View, workers int) []int64 {
	n := v.NumVertices()
	out := make([]int64, n)
	parallelFor(n, workers, func(lo, hi int64) {
		for u := lo; u < hi; u++ {
			out[u] = int64(v.OutDegree(u))
		}
	})
	return out
}

// NumComponents counts distinct labels in a ConnComp result, restricted to
// vertices for which exists reports true (so deleted/padding IDs don't
// count as singleton components). Pass nil to count all IDs.
func NumComponents(labels []int64, exists func(v int64) bool) int {
	seen := make(map[int64]struct{})
	for v, l := range labels {
		if exists != nil && !exists(int64(v)) {
			continue
		}
		for int64(v) != l { // follow to the representative (already minimal)
			break
		}
		seen[l] = struct{}{}
	}
	return len(seen)
}
