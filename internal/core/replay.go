package core

// Crash recovery (paper §6): load the latest checkpoint, then replay the
// WAL to re-apply committed updates. Segments replay in sequence order,
// each read frame by frame until the first frame that does not verify; a
// commit group is one frame, so a crash that tore the last group rolls the
// graph back to the group before it, never to a half-applied one. Replay
// applies every op through applyOp (apply.go), the interpreter a follower
// runs too, with committed timestamps and no group commit. It is
// single-threaded, so the vertex locks applyOp takes are uncontended and
// the blocks it retires are reclaimed after each record. Degree statistics
// are kept as the checkpoint loads and the WAL replays, as on a live
// graph.

import (
	"path/filepath"

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
		// exactly the state at meta.Epoch(). The chain links (base epoch +
		// predecessor epoch recorded in every delta) are verified on load.
		if err := g.loadCkptFile(filepath.Join(g.opts.Dir, snapFileName(meta.BaseEpoch)), ckptMagic, meta.BaseEpoch); err != nil {
			return err
		}
		prev := meta.BaseEpoch
		for _, de := range meta.DeltaEpochs {
			if err := g.loadCkptFile(filepath.Join(g.opts.Dir, deltaFileName(de)), deltaMagic, meta.BaseEpoch, prev, de); err != nil {
				return err
			}
			prev = de
		}
		afterEpoch = meta.Epoch()
		g.lastCkptEpoch.Store(afterEpoch)
		g.ckptBase = meta.BaseEpoch
		g.ckptDeltas = append([]int64(nil), meta.DeltaEpochs...)
	}
	// Sweep checkpoint files the meta does not reference: a crash between
	// a snapshot/delta landing durably and the meta swap — or mid-prune —
	// leaves them behind, and a later checkpoint at the same epoch must
	// not collide with them. With no meta at all, every ckpt file is such
	// an orphan.
	g.pruneCheckpointFiles(meta)
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
		var ops []walOp
		durable, err := wal.Replay(seg.Path, afterEpoch, func(epoch int64, rec []byte) (err error) {
			if ops, err = decodeOps(ops[:0], rec); err != nil {
				return err
			}
			for _, op := range ops {
				g.applyOp(op, epoch, true)
			}
			// No reader exists yet: every block the record retired
			// (stamped at write epoch 0) is free to reuse now.
			g.alloc.Reclaim(epoch)
			return nil
		})
		if err != nil {
			return err
		}
		if durable > maxEpoch {
			maxEpoch = durable
		}
	}
	g.epochs.Init(maxEpoch)
	return nil
}
