package core

import "livegraph/internal/tel"

// Reader is the unified read surface of the v2 API: every way of looking at
// the graph — a transaction's snapshot-isolated view (*Tx) or a pinned
// analytics view (*Snapshot) — answers the same five questions, and every
// consumer (traversals, analytics kernels, the HTTP server, examples,
// benches) programs against this interface instead of one concrete type.
//
// All methods observe one consistent epoch, ReadEpoch: a point lookup, an
// adjacency scan and a multi-hop traversal over the same Reader see the
// same committed state (plus, for a *Tx, its own uncommitted writes). The
// paper's central property carries over verbatim: every Reader method is
// implemented as a purely sequential scan over TELs — no pointer chasing,
// no side structures, even while concurrent transactions commit.
//
// Byte slices returned by GetVertex, GetEdge and EdgeIter.Props alias block
// memory; copy them to retain them past the Reader's lifetime.
type Reader interface {
	// GetVertex returns the vertex payload visible at this Reader's epoch,
	// or ErrNotFound if the vertex does not exist or is deleted.
	GetVertex(v VertexID) ([]byte, error)

	// GetEdge returns the properties of the visible version of the
	// (src,label,dst) edge, or ErrNotFound.
	GetEdge(src VertexID, label Label, dst VertexID) ([]byte, error)

	// Neighbors returns a purely sequential iterator over the (src,label)
	// adjacency list, newest edge first.
	Neighbors(src VertexID, label Label) *EdgeIter

	// Degree counts visible edges in the (src,label) adjacency list.
	Degree(src VertexID, label Label) int

	// ReadEpoch returns the snapshot epoch all reads observe.
	ReadEpoch() int64
}

// Both transaction views and pinned snapshots satisfy the unified surface.
var (
	_ Reader = (*Tx)(nil)
	_ Reader = (*Snapshot)(nil)
)

// ParallelReader marks a Reader whose methods are safe for concurrent use
// by multiple goroutines. The morsel-driven traversal engine only fans a
// hop out over Readers carrying this marker; anything else — a *Tx in
// particular, whose write buffers are single-goroutine state — executes
// sequentially no matter what parallelism was requested.
type ParallelReader interface {
	Reader
	// ConcurrentSafe is a marker method: implementations promise that all
	// Reader methods may be called from multiple goroutines concurrently.
	ConcurrentSafe()
}

// Pinned snapshots are the engine's concurrency-safe Reader.
var _ ParallelReader = (*Snapshot)(nil)

// graphSource lets the traversal engine reach the owning graph's options
// (default parallelism) from a Reader without widening the public surface,
// and tells it whether the Reader's goroutine holds vertex locks — a *Tx
// that has written — which is when it must not build a reverse index
// (revindex.go: the build takes vertex locks).
type graphSource interface {
	graph() *Graph
	locksHeld() bool
}

var (
	_ graphSource = (*Tx)(nil)
	_ graphSource = (*Snapshot)(nil)
)

// edgeIterSource is the allocation-free adjacency-scan path: a Reader that
// can position a caller-owned EdgeIter in place instead of heap-allocating
// a fresh one per call. Traversal workers keep one EdgeIter each and reset
// it per frontier vertex, cutting the hot Neighbors path to zero
// allocations; foreign Reader implementations fall back to Neighbors.
type edgeIterSource interface {
	neighborsInto(it *EdgeIter, src VertexID, label Label)
}

var (
	_ edgeIterSource = (*Tx)(nil)
	_ edgeIterSource = (*Snapshot)(nil)
)

// resetEdgeIter (re)binds it to a scan of t bounded at n entries with the
// caller's visibility parameters, charging the page cache when the graph
// simulates out-of-core execution.
func resetEdgeIter(it *EdgeIter, g *Graph, t *tel.TEL, n int, tre, tid int64) {
	*it = EdgeIter{t: t, it: t.Scan(n, tre, tid), lastPage: -1}
	if g.opts.PageCache != nil {
		it.g = g
	}
}

// newEdgeIter builds the shared adjacency iterator both Reader
// implementations hand out.
func newEdgeIter(g *Graph, t *tel.TEL, n int, tre, tid int64) *EdgeIter {
	it := new(EdgeIter)
	resetEdgeIter(it, g, t, n, tre, tid)
	return it
}

// lookupEdge is the shared GetEdge path of both Reader implementations:
// resolve the visible (*,label,dst) version within the first n entries of
// t — Bloom filter first, then the bounded backward scan. The returned
// slice aliases block memory.
func lookupEdge(t *tel.TEL, n int, dst VertexID, tre, tid int64) ([]byte, error) {
	if !t.MayContain(int64(dst)) {
		return nil, ErrNotFound
	}
	i := t.FindLatest(int64(dst), n, tre, tid)
	if i < 0 {
		return nil, ErrNotFound
	}
	return t.Props(i), nil
}
