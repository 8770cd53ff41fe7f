package core

// The apply path: what a committed write does to the graph, beyond the
// write itself, is decided in one place. applyOp is the one interpreter
// of a decoded op; recovery's checkpoint load and WAL replay and a
// follower's ApplyEpoch all call it, so a recovered graph and a replica
// are built by the same code from the same ops. It takes the vertex lock
// every time: a follower may run compaction concurrently, and during
// recovery the lock is simply uncontended. applied is the bookkeeping every apply site does
// for a vertex whose records changed — the primary's committer, applyOp —
// so the vertex frontier, the maintenance dirty set and the checkpoint
// journal follow one rule everywhere.
//
// On a follower the read epoch advances only at group boundaries, so every
// snapshot a reader pins on the replica is a transactionally consistent
// prefix of the primary's history, exactly as if it had been pinned on the
// primary at that epoch.

import (
	"context"
	"fmt"
	"time"

	"livegraph/internal/obs"
	"livegraph/internal/tel"
)

// ApplyEpoch applies one replicated commit group — the data records of
// the primary's WAL group stamped `epoch`, as delivered by wal.Tailer or
// the repl stream — and publishes it atomically: readers either observe
// the whole group or none of it, because GRE moves to `epoch` only after
// every record is applied. Groups must arrive in strictly increasing
// epoch order; a repeated or older epoch is an error (the resume
// contract: a reconnecting applier asks for `after=ReadEpoch()`, so a
// correct stream never re-delivers).
//
// The first call marks the graph a follower (see SetFollower): local
// write transactions are rejected from then on, which is what makes the
// single replication stream the only mutator and the primary's epoch
// sequence the replica's own. Reads are served concurrently throughout.
func (g *Graph) ApplyEpoch(epoch int64, recs [][]byte) error {
	if g.closed.Load() {
		return ErrClosed
	}
	o := g.ob
	//lglint:ignore ctxprop trace-root only: replication apply is driven by the stream, not a per-call deadline, and nothing blocks on this context
	_, asp := o.tracer.StartSpan(context.Background(), "repl.apply")
	asp.SetAttr(obs.Int("epoch", epoch), obs.Int("records", int64(len(recs))))
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		o.replApply.Record(d)
		asp.End()
		if asp == nil {
			o.tracer.SlowOp("repl.apply", d, obs.Int("epoch", epoch))
		}
	}()
	g.applyMu.Lock()
	defer g.applyMu.Unlock()
	g.follower.Store(true)
	if cur := g.epochs.ReadEpoch(); epoch <= cur {
		return fmt.Errorf("livegraph: ApplyEpoch %d out of order (applied epoch is %d)", epoch, cur)
	}
	// Decode everything before touching the graph: a corrupt record must
	// not leave a half-applied (never-published) group behind.
	var ops []walOp
	for _, rec := range recs {
		var err error
		if ops, err = decodeOps(ops, rec); err != nil {
			return err
		}
	}
	for _, op := range ops {
		g.applyOp(op, epoch, true)
	}
	// Group boundary: expose the whole group to future readers at once.
	g.epochs.AdvanceTo(epoch)
	// Recycle blocks superseded by past groups once no snapshot pins
	// them; the follower has no committer to do this for it. Compaction
	// proper runs on the background maintenance scheduler, fed by the
	// dirty marks applyOp leaves — followers prune dead versions under
	// the same pressure triggers as primaries.
	g.alloc.Reclaim(g.readers.MinActive(epoch))
	return nil
}

// applyOp applies one decoded op with the committed timestamp epoch,
// under the vertex lock of the op's vertex (an edge op's source). journal
// is applied's: false only for checkpoint load.
func (g *Graph) applyOp(op walOp, epoch int64, journal bool) {
	var dead int64
	g.locks.Lock(uint64(op.v))
	switch op.op {
	case opAddVertex, opPutVertex, opDelVertex:
		prev := g.vindex.Get(int64(op.v))
		ver := &vertexVersion{ts: epoch, deleted: op.op == opDelVertex, prev: prev}
		if !ver.deleted {
			ver.data = append([]byte(nil), op.data...)
		}
		g.vindex.Set(int64(op.v), ver)
		if prev != nil {
			dead = entryDeadBytes + int64(len(prev.data))
		}
	case opResetVertex:
		// Drop the payload and every list, defer-freed like applyEdge's
		// upgrade: safe under a concurrent scan, freed at once in recovery.
		if ll := g.eindex.Get(int64(op.v)); ll != nil {
			for i := range ll.entries {
				t := tel.At(g.alloc, ll.ref(i))
				g.statsDrop(t)
				g.alloc.DeferFree(t.Ref(), g.epochs.WriteEpoch())
				g.forgetBlock(t)
			}
			g.eindex.Set(int64(op.v), nil)
		}
		g.vindex.Set(int64(op.v), nil)
	case opInsertEdge, opUpsertEdge, opDeleteEdge:
		dead = g.applyEdge(op.op, op.v, op.label, op.dst, op.data, epoch)
	}
	g.locks.Unlock(uint64(op.v))
	g.applied(op.v, dead, journal)
}

// applyEdge applies one edge operation of applyOp directly with a
// committed timestamp. It keeps the degree statistics and hints the
// label's reverse index (a nil check while the label has none), as the
// primary's write path does. It returns the exact bytes the operation
// turned into garbage (an invalidated entry's words + properties), which
// SetInvalidation has already added to the TEL's dead counter. Caller
// holds src's lock.
func (g *Graph) applyEdge(op byte, src VertexID, label Label, dst VertexID, props []byte, epoch int64) int64 {
	t := g.telLocked(src, label)
	n, pl := t.Len(), t.PropLen()

	var dead int64
	if op == opUpsertEdge || op == opDeleteEdge {
		if t.MayContain(int64(dst)) {
			if i := t.FindLatest(int64(dst), n, epoch, 0); i >= 0 {
				t.SetInvalidation(i, epoch)
				dead = t.EntryDeadBytes(i)
				g.statsEdges(label, -1)
			}
		}
		if op == opDeleteEdge {
			t.Publish(n, pl, epoch)
			return dead
		}
	}
	if !t.Fits(n, pl, len(props)) {
		r := t.Upgrade(g.alloc, n, pl, len(props))
		g.setTELLocked(src, label, r)
		// A concurrent snapshot may be mid-scan over the old block:
		// recycle it only once every reader pinned below the current
		// write epoch has exited (same discipline as Tx.upgrade). During
		// recovery there are no readers, and the Reclaim after each WAL
		// record or checkpoint frame frees it at once.
		g.alloc.DeferFree(t.Ref(), g.epochs.WriteEpoch())
		g.forgetBlock(t)
		t = tel.At(g.alloc, r)
	}
	pl = t.Append(n, int64(dst), epoch, props, pl)
	t.Publish(n+1, pl, epoch)
	g.statsPublish(label, n, n+1)
	g.statsEdges(label, 1)
	g.revAdd(dst, label, src)
	return dead
}

// applied does the bookkeeping of a committed write to v's records, on
// every apply site: the committer's apply phase and applyOp. dead is the
// garbage the write left behind. It moves the vertex frontier past v —
// every vertex that owns records does (a vertex-op target or an edge
// source); a destination owns none and never moves it — so a checkpoint's
// nextVertexID covers v. With journal set it then queues v for
// maintenance and journals it for the next delta checkpoint; checkpoint
// load clears it, because what it loads is already checkpointed and
// freshly laid out. Callers hold the leader token, applyMu, or run
// single-threaded recovery: Checkpoint drains the journal under the first
// two.
func (g *Graph) applied(v VertexID, dead int64, journal bool) {
	g.bumpNextVertex(int64(v))
	if journal {
		g.markDirty(v, dead)
		g.markCkptDirty(v)
	}
}

// bumpNextVertex raises the vertex-ID frontier to cover id. CAS because
// concurrent readers load it (NumVertices, analytics sizing).
func (g *Graph) bumpNextVertex(id int64) {
	for {
		cur := g.nextVertex.Load()
		if id < cur || g.nextVertex.CompareAndSwap(cur, id+1) {
			return
		}
	}
}

// takeVertexID allocates the frontier's ID and moves the frontier past it
// (AddVertex's fetch-and-add), or returns ErrOutOfRange once the frontier
// is at MaxVertexID; a CAS, so it never moves the frontier past the bound.
func (g *Graph) takeVertexID() (VertexID, error) {
	for {
		cur := g.nextVertex.Load()
		if cur >= MaxVertexID {
			return 0, ErrOutOfRange
		}
		if g.nextVertex.CompareAndSwap(cur, cur+1) {
			return VertexID(cur), nil
		}
	}
}
