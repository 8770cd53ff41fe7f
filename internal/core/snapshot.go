package core

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Snapshot is a pinned, consistent read-only view of the graph at one read
// epoch — what real-time analytics run on (paper §1/§7.4: iterative
// analytics "directly on the latest snapshot", no ETL). It pins its epoch
// in the reading-epoch table so compaction will not reclaim versions it can
// still see. Release it when done.
//
// A Snapshot is safe for concurrent use by multiple goroutines (unlike Tx),
// which is what parallel analytics kernels need.
type Snapshot struct {
	g        *Graph
	tre      int64
	slot     int
	released atomic.Bool
}

// Snapshot pins the latest committed state.
func (g *Graph) Snapshot() (*Snapshot, error) {
	//lglint:ignore ctxprop public convenience wrapper; ctx-aware callers use SnapshotCtx
	return g.SnapshotCtx(context.Background())
}

// SnapshotCtx pins the latest committed state, waiting for a free worker
// slot no longer than ctx allows.
func (g *Graph) SnapshotCtx(ctx context.Context) (*Snapshot, error) {
	if g.closed.Load() {
		return nil, ErrClosed
	}
	slot, err := g.acquireSlotCtx(ctx)
	if err != nil {
		return nil, err
	}
	tre := g.epochs.ReadEpoch()
	g.readers.Enter(slot, tre)
	return &Snapshot{g: g, tre: tre, slot: slot}, nil
}

// SnapshotAt pins a consistent view of the graph as of a *past* epoch —
// temporal graph processing on the primary store (paper §9 future work).
// The epoch must lie within the HistoryRetention window; the graph must
// have been opened with HistoryRetention > 0 for anything but the current
// epoch to be dependable.
func (g *Graph) SnapshotAt(epoch int64) (*Snapshot, error) {
	//lglint:ignore ctxprop public convenience wrapper; ctx-aware callers use SnapshotAtCtx
	return g.SnapshotAtCtx(context.Background(), epoch)
}

// SnapshotAtCtx is SnapshotAt with the worker-slot wait bounded by ctx.
func (g *Graph) SnapshotAtCtx(ctx context.Context, epoch int64) (*Snapshot, error) {
	if g.closed.Load() {
		return nil, ErrClosed
	}
	cur := g.epochs.ReadEpoch()
	if epoch > cur {
		return nil, fmt.Errorf("livegraph: epoch %d is in the future (current %d)", epoch, cur)
	}
	if epoch < cur-g.opts.HistoryRetention {
		return nil, ErrHistoryGone
	}
	slot, err := g.acquireSlotCtx(ctx)
	if err != nil {
		return nil, err
	}
	g.readers.Enter(slot, epoch)
	// Re-check after pinning: a compaction pass that computed its floor
	// before we registered could still reclaim our versions, so the window
	// check must hold with the epoch already pinned.
	if epoch < g.epochs.ReadEpoch()-g.opts.HistoryRetention {
		g.readers.Exit(slot)
		g.releaseSlot(slot)
		return nil, ErrHistoryGone
	}
	return &Snapshot{g: g, tre: epoch, slot: slot}, nil
}

// Release unpins the snapshot. Idempotent.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	s.g.readers.Exit(s.slot)
	s.g.releaseSlot(s.slot)
}

// ReadEpoch returns the read epoch this snapshot observes (Reader).
func (s *Snapshot) ReadEpoch() int64 { return s.tre }

// NumVertices returns the graph's vertex-ID frontier now — one past the
// highest ID that owns records — not at the snapshot's epoch: vertices
// added after the snapshot was pinned count too.
func (s *Snapshot) NumVertices() int64 { return s.g.nextVertex.Load() }

// GetVertex returns the payload of v, or ErrNotFound if v does not exist
// (or is deleted) in this snapshot (Reader).
func (s *Snapshot) GetVertex(v VertexID) ([]byte, error) {
	ver := s.g.latestVertex(v, s.tre)
	if ver == nil || ver.deleted {
		return nil, ErrNotFound
	}
	return ver.data, nil
}

// GetEdge returns the properties of the visible version of (src,label,dst),
// or ErrNotFound (Reader). The returned slice aliases block memory.
func (s *Snapshot) GetEdge(src VertexID, label Label, dst VertexID) ([]byte, error) {
	t, ok := s.g.telFor(src, label)
	if !ok {
		return nil, ErrNotFound
	}
	s.g.touch(t)
	return lookupEdge(t, t.Len(), dst, s.tre, 0)
}

// Neighbors returns a purely sequential iterator over the (src,label)
// adjacency list at this snapshot's epoch, newest first (Reader). Every
// call returns an independent iterator, so concurrent goroutines may scan
// the same snapshot.
func (s *Snapshot) Neighbors(src VertexID, label Label) *EdgeIter {
	t, ok := s.g.telFor(src, label)
	if !ok {
		return &EdgeIter{done: true}
	}
	s.g.touch(t)
	return newEdgeIter(s.g, t, t.Len(), s.tre, 0)
}

// neighborsInto rebinds a caller-owned iterator to (src,label) without
// allocating (Reader).
func (s *Snapshot) neighborsInto(it *EdgeIter, src VertexID, label Label) {
	t, ok := s.g.telFor(src, label)
	if !ok {
		*it = EdgeIter{done: true}
		return
	}
	s.g.touch(t)
	resetEdgeIter(it, s.g, t, t.Len(), s.tre, 0)
}

func (s *Snapshot) graph() *Graph { return s.g }

// ScanNeighbors sequentially scans the (v,label) adjacency list, invoking
// fn for every visible edge (newest first). fn returning false stops the
// scan. Property slices alias block memory and are only valid during the
// call.
func (s *Snapshot) ScanNeighbors(v VertexID, label Label, fn func(dst VertexID, props []byte) bool) {
	t, ok := s.g.telFor(v, label)
	if !ok {
		return
	}
	s.g.touch(t)
	paged := s.g.opts.PageCache != nil
	lastPage := int64(-1)
	it := t.Scan(t.Len(), s.tre, 0)
	for {
		i := it.Next()
		if i < 0 {
			return
		}
		if paged {
			if p := t.EntryPage(i); p != lastPage {
				lastPage = p
				s.g.touchPage(p)
			}
		}
		if !fn(VertexID(t.Dst(i)), t.Props(i)) {
			return
		}
	}
}

// Degree counts visible edges of (v,label).
func (s *Snapshot) Degree(v VertexID, label Label) int {
	t, ok := s.g.telFor(v, label)
	if !ok {
		return 0
	}
	s.g.touch(t)
	return degree(s.g, t, t.Len(), s.tre, 0)
}

// HasEdge reports whether a visible (v,label,dst) edge exists.
func (s *Snapshot) HasEdge(v VertexID, label Label, dst VertexID) bool {
	_, err := s.GetEdge(v, label, dst)
	return err == nil
}

// ScanInCandidates invokes fn for every *hinted* in-neighbor candidate of
// (v, label), each once: a superset of the true in-neighbors at any epoch,
// read off the label's reverse hint index (stale hints from aborted or
// deleted edges may appear; no true in-neighbor is ever missing). fn
// returning false stops the scan. Callers needing exactness confirm each
// candidate with GetEdge/HasEdge — which is what ScanIn does.
//
// The index is built by the first in-scan of a label — one pass over the
// label's adjacency lists, paid by that call — and folded by a later one
// whenever enough writes have landed beside it. Both take vertex locks, so
// an in-scan must not be made from a goroutine that holds an open write
// transaction's locks.
func (s *Snapshot) ScanInCandidates(v VertexID, label Label, fn func(src VertexID) bool) {
	gen, _ := s.g.revReady(label, true)
	gen.each(v, fn)
}

// ScanIn invokes fn for every confirmed in-neighbor of (v, label) at this
// snapshot's epoch, each once: hint candidates filtered through the forward
// read path, so MVCC visibility is exact. See ScanInCandidates for when
// the index behind it is built.
func (s *Snapshot) ScanIn(v VertexID, label Label, fn func(src VertexID) bool) {
	s.ScanInCandidates(v, label, func(src VertexID) bool {
		return !s.HasEdge(src, label, v) || fn(src)
	})
}
