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

	// graph is the owning graph, which the traversal engine plans and
	// observes through. Being unexported, it also seals the interface: only
	// this package's *Tx and *Snapshot implement Reader.
	graph() *Graph

	// neighborsInto is Neighbors into a caller-owned iterator: traversal
	// workers keep one EdgeIter each and rebind it per frontier vertex, so
	// the hot scan path allocates nothing.
	neighborsInto(it *EdgeIter, src VertexID, label Label)
}

// Both transaction views and pinned snapshots satisfy the unified surface.
var (
	_ Reader = (*Tx)(nil)
	_ Reader = (*Snapshot)(nil)
)

// resetEdgeIter (re)binds it to a scan of t bounded at n entries with the
// caller's visibility parameters, charging the page cache when the graph
// simulates out-of-core execution and t is in the arena (a transaction's
// private list is not).
func resetEdgeIter(it *EdgeIter, g *Graph, t tel.TEL, n int, tre, tid int64) {
	*it = EdgeIter{it: t.Scan(n, tre, tid), lastPage: -1}
	if g.opts.PageCache != nil && t.Ref() != 0 {
		it.g = g
	}
}

// newEdgeIter builds the shared adjacency iterator both Reader
// implementations hand out.
func newEdgeIter(g *Graph, t tel.TEL, n int, tre, tid int64) *EdgeIter {
	it := new(EdgeIter)
	resetEdgeIter(it, g, t, n, tre, tid)
	return it
}

// degree is the shared Degree path of both Reader implementations: the
// number of entries among t's first n visible at (tre, tid). A settled list
// (tel.TEL.Settled) answers from its header, n itself; any other is
// counted with a scan, charged to the page cache like any EdgeIter.
func degree(g *Graph, t tel.TEL, n int, tre, tid int64) int {
	if t.Settled(n, tre, tid) {
		return n
	}
	var it EdgeIter
	resetEdgeIter(&it, g, t, n, tre, tid)
	d := 0
	for it.Next() {
		d++
	}
	return d
}

// lookupEdge is the shared GetEdge path of both Reader implementations:
// resolve the visible (*,label,dst) version within the first n entries of
// t — Bloom filter first, then the bounded backward scan. The returned
// slice aliases block memory.
func lookupEdge(t tel.TEL, n int, dst VertexID, tre, tid int64) ([]byte, error) {
	if !t.MayContain(int64(dst)) {
		return nil, ErrNotFound
	}
	i := t.FindLatest(int64(dst), n, tre, tid)
	if i < 0 {
		return nil, ErrNotFound
	}
	return t.Props(i), nil
}
