package core

// Incremental replication apply (the replica side of WAL shipping): a
// follower graph ingests the primary's commit groups one epoch at a time,
// while serving reads. The op-application logic is recovery's replay path
// (replay.go), with the differences a live graph forces: vertex locks are
// taken (the follower may run compaction), superseded blocks are
// defer-freed past pinned snapshots instead of freed eagerly, and the
// read epoch advances only at group boundaries — so every snapshot a
// reader pins on the replica is a transactionally consistent prefix of
// the primary's history, exactly as if it had been pinned on the primary
// at that epoch.

import (
	"context"
	"fmt"
	"time"

	"livegraph/internal/obs"
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
	decoded := make([][]walOp, len(recs))
	for i, rec := range recs {
		ops, err := decodeOps(rec)
		if err != nil {
			return err
		}
		decoded[i] = ops
	}
	if g.replH == nil {
		g.replH = g.alloc.NewHandle()
	}
	for _, ops := range decoded {
		for _, op := range ops {
			g.applyOpLive(op, epoch)
		}
	}
	// Group boundary: expose the whole group to future readers at once.
	g.epochs.AdvanceTo(epoch)
	// Recycle blocks superseded by past groups once no snapshot pins
	// them; the follower has no committer to do this for it. Compaction
	// proper runs on the background maintenance scheduler, fed by the
	// dirty marks above — followers prune dead versions under the same
	// pressure triggers as primaries.
	g.alloc.Reclaim(g.readers.MinActive(epoch))
	return nil
}

// applyOpLive applies one decoded WAL op with a committed timestamp on a
// graph that is serving readers. Mirrors replayOp, plus the locking and
// dirty-tracking a live graph needs (compaction may run concurrently and
// must not relocate a TEL mid-append).
func (g *Graph) applyOpLive(op walOp, epoch int64) {
	switch op.op {
	case opAddVertex, opPutVertex:
		g.bumpNextVertex(int64(op.v))
		data := append([]byte(nil), op.data...)
		g.locks.Lock(uint64(op.v))
		prev := g.vindex.Get(int64(op.v))
		g.vindex.Set(int64(op.v), &vertexVersion{ts: epoch, data: data, prev: prev})
		g.locks.Unlock(uint64(op.v))
		var dead int64
		if prev != nil {
			dead = entryDeadBytes + int64(len(prev.data))
		}
		g.markDirty(op.v, dead)
	case opDelVertex:
		g.locks.Lock(uint64(op.v))
		prev := g.vindex.Get(int64(op.v))
		g.vindex.Set(int64(op.v), &vertexVersion{ts: epoch, deleted: true, prev: prev})
		g.locks.Unlock(uint64(op.v))
		var dead int64
		if prev != nil {
			dead = entryDeadBytes + int64(len(prev.data))
		}
		g.markDirty(op.v, dead)
	case opInsertEdge, opUpsertEdge, opDeleteEdge:
		g.bumpNextVertex(int64(op.v))
		g.bumpNextVertex(int64(op.dst))
		g.locks.Lock(uint64(op.v))
		// replayEdge reports the exact bytes an invalidated prior
		// version turned into garbage (0 for true insertions).
		dead := g.replayEdge(g.replH, op.op, op.v, op.label, op.dst, op.data, epoch, true)
		g.locks.Unlock(uint64(op.v))
		g.markDirty(op.v, dead)
	}
	// Applied under applyMu — the same mutex a follower Checkpoint holds
	// while draining — so the journal mark and the change's visibility
	// are atomic with respect to the checkpoint boundary.
	g.markCkptDirty(op.v)
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
