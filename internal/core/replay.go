package core

// Crash recovery (paper §6): load the latest checkpoint, then replay the
// WAL to re-apply committed updates. Segments replay in sequence order,
// each read frame by frame until the first frame that does not verify; a
// commit group is one frame, so a crash that tore the last group rolls the
// graph back to the group before it, never to a half-applied one. Replay
// is single-threaded and applies operations directly with committed
// timestamps — no locks, no group commit.

import (
	"path/filepath"

	"livegraph/internal/mvcc"
	"livegraph/internal/tel"
	"livegraph/internal/wal"
)

// recover restores durable state from opts.Dir. Called by Open before the
// committer starts.
func (g *Graph) recover() error {
	// Sweep stray swap-protocol temp files first: a crash between writing
	// `<x>.tmp` and renaming it leaves the temp behind. They were never
	// visible under a final name, so they carry no acknowledged state —
	// but a later checkpoint at the same epoch would collide with them.
	for _, pat := range []string{"ckpt-*.snap.tmp", "ckpt-*.delta.tmp", "CHECKPOINT.tmp"} {
		if strays, err := filepath.Glob(filepath.Join(g.opts.Dir, pat)); err == nil {
			for _, s := range strays {
				g.pruneFile(s)
			}
		}
	}
	meta, hasCkpt, err := wal.ReadCheckpointMeta(g.opts.Dir)
	if err != nil {
		return err
	}
	afterEpoch := int64(0)
	if hasCkpt {
		// Base snapshot, then the delta chain in order: each delta fully
		// replaces its vertices' state, so after the last one the graph is
		// exactly the state at meta.Epoch. The chain links (base epoch +
		// predecessor epoch recorded in every delta) are verified on load.
		if err := g.loadCkptFile(filepath.Join(g.opts.Dir, meta.Path), ckptMagic, meta.BaseEpoch); err != nil {
			return err
		}
		prev := meta.BaseEpoch
		for _, de := range meta.DeltaEpochs {
			if err := g.loadCkptFile(filepath.Join(g.opts.Dir, deltaFileName(de)), deltaMagic, meta.BaseEpoch, prev, de); err != nil {
				return err
			}
			prev = de
		}
		afterEpoch = meta.Epoch
		g.lastCkptEpoch.Store(meta.Epoch)
		g.ckptBase = meta.BaseEpoch
		g.ckptDeltas = append([]int64(nil), meta.DeltaEpochs...)
	}
	// Sweep checkpoint files the meta does not reference: a crash between
	// a snapshot/delta landing durably and the meta swap — or mid-prune —
	// leaves them behind, and a later checkpoint at the same epoch must
	// not collide with them. With no meta at all, every ckpt file is such
	// an orphan.
	g.pruneCheckpointFiles(meta.Path, meta.DeltaEpochs)
	segs, maxSeq, err := wal.Segments(g.opts.Dir)
	if err != nil {
		return err
	}
	g.walSeq = maxSeq
	maxEpoch := afterEpoch
	for _, seg := range segs {
		if seg.Seq < meta.MinWALSeq {
			// Fully superseded by the checkpoint; the checkpointer
			// crashed mid-prune. Finish the job instead of replaying.
			g.opts.Backend.Remove(seg.Path)
			continue
		}
		durable, err := wal.Replay(seg.Path, afterEpoch, func(epoch int64, rec []byte) error {
			ops, err := decodeOps(rec)
			if err != nil {
				return err
			}
			for _, op := range ops {
				g.replayOp(op, epoch)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if durable > maxEpoch {
			maxEpoch = durable
		}
	}
	g.rebuildLabelStats()
	g.epochs.Init(maxEpoch)
	return nil
}

func (g *Graph) replayOp(op walOp, epoch int64) {
	switch op.op {
	case opAddVertex, opPutVertex:
		if int64(op.v) >= g.nextVertex.Load() {
			g.nextVertex.Store(int64(op.v) + 1)
		}
		prev := g.vindex.Get(int64(op.v))
		data := append([]byte(nil), op.data...)
		g.vindex.Set(int64(op.v), &vertexVersion{ts: epoch, data: data, prev: prev})
	case opDelVertex:
		prev := g.vindex.Get(int64(op.v))
		g.vindex.Set(int64(op.v), &vertexVersion{ts: epoch, deleted: true, prev: prev})
	case opInsertEdge, opUpsertEdge, opDeleteEdge:
		if int64(op.v) >= g.nextVertex.Load() {
			g.nextVertex.Store(int64(op.v) + 1)
		}
		if int64(op.dst) >= g.nextVertex.Load() {
			g.nextVertex.Store(int64(op.dst) + 1)
		}
		g.replayEdge(op.op, op.v, op.label, op.dst, op.data, epoch, false)
	}
	// Replayed ops are changes past the checkpoint the graph recovered
	// from: journal them so the next delta checkpoint captures them.
	g.markCkptDirty(op.v)
}

// replayEdge applies one edge operation directly with a committed
// timestamp, from recovery (live=false: the graph has no readers, so no
// locks are taken and superseded blocks are freed immediately) or from a
// replication apply (live=true: concurrent snapshots may hold the old
// block, so it is defer-freed past every pinned epoch; the caller holds
// the vertex lock). It returns the exact bytes the operation turned into
// garbage (an invalidated entry's words + properties), already
// accumulated into the TEL's dead counter.
func (g *Graph) replayEdge(op byte, src VertexID, label Label, dst VertexID, props []byte, epoch int64, live bool) int64 {
	t := g.telLocked(src, label)
	n, pl := t.Len(), t.PropLen()

	var dead int64
	if op == opUpsertEdge || op == opDeleteEdge {
		if t.MayContain(int64(dst)) {
			if i := t.FindLatest(int64(dst), n, epoch, 0); i >= 0 {
				t.SetInvalidation(i, epoch)
				dead = t.EntryDeadBytes(i)
				t.AddDeadBytes(dead)
				if live {
					g.statsEdges(label, -1)
				}
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
		if live {
			// A concurrent snapshot may be mid-scan over the old block:
			// recycle it only once every reader pinned below the current
			// write epoch has exited (same discipline as Tx.upgrade).
			g.alloc.DeferFree(t.Ref(), g.epochs.WriteEpoch())
			g.forgetBlock(t)
		} else {
			g.alloc.Free(t.Ref()) // recovery owns the old block; no readers exist
		}
		t = tel.At(g.alloc, r)
	}
	pl = t.Append(n, int64(dst), epoch, props, pl)
	t.Publish(n+1, pl, epoch)
	if live {
		// Replication apply maintains the degree statistics incrementally
		// and hints the reverse index (if the label has one), mirroring the
		// primary's write path; recovery (live=false) rebuilds the
		// statistics in one pass instead (rebuildLabelStats) and leaves the
		// index unbuilt.
		g.statsPublish(label, n, n+1)
		g.statsEdges(label, 1)
		g.revAdd(dst, label, src)
	}
	return dead
}

// rebuildLabelStats derives the degree statistics from the recovered TEL
// state in one single-threaded pass. Recovery loads checkpoints and replays
// the WAL below the incremental hooks (live=false), so after it finishes
// this walk is the sole source of truth: every committed entry counts
// toward the per-label histogram, live entries (no invalidation) toward the
// visible-edge counter. The reverse hint index is not rebuilt: no label has
// a generation until an in-scan asks for one (revindex.go).
func (g *Graph) rebuildLabelStats() {
	nv := g.nextVertex.Load()
	for v := int64(0); v < nv; v++ {
		ll := g.eindex.Get(v)
		if ll == nil {
			continue
		}
		for j := range ll.entries {
			t := tel.At(g.alloc, ll.ref(j))
			n := t.Len()
			label := Label(t.Label())
			g.statsPublish(label, 0, n)
			live := int64(0)
			for i := 0; i < n; i++ {
				if t.Invalidation(i) == mvcc.NullTS {
					live++
				}
			}
			g.statsEdges(label, live)
		}
	}
}
