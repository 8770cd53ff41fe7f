package core

// Checkpointing (paper §6, "Recovery"): a checkpointer periodically persists
// the latest consistent snapshot using a read-only transaction and prunes
// WAL entries written before the snapshot's epoch. On failure, recovery
// loads the latest checkpoint and replays the remaining WAL.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"livegraph/internal/obs"
	"livegraph/internal/wal"
)

var ckptMagic = []byte("LGCKPT1\n")

// ckptCrashHook, when set (crash-matrix tests only), is invoked at each
// named stage of the checkpoint swap protocol. Returning an error aborts
// the checkpoint at exactly that point — the iosim equivalent of dying
// there — and the real-backend tests os.Exit inside the hook instead.
// Stages, in protocol order (a full checkpoint passes through the snap-*
// stages, a delta checkpoint through the delta-* stages):
//
//	snap-tmp      snapshot streamed to ckpt-E.snap.tmp; final path untouched
//	snap-durable  snapshot renamed into place and durable; meta still old
//	delta-tmp     delta streamed to ckpt-E.delta.tmp; final path untouched
//	delta-durable delta renamed into place and durable; meta still old
//	meta-durable  CHECKPOINT references the new file; prune not started
//	pruned        superseded segments and unreferenced ckpt files removed
var ckptCrashHook func(stage string) error

func ckptStage(stage string) error {
	if ckptCrashHook != nil {
		return ckptCrashHook(stage)
	}
	return nil
}

// Checkpoint persists the latest consistent snapshot as the recovery root
// and prunes WAL segments it supersedes. When a base snapshot exists and
// the checkpoint-scoped dirty journal covers only a small fraction of the
// graph, the checkpoint is incremental: only the changed vertices are
// streamed into a delta file chained from the base (see ckpt_delta.go);
// otherwise — first checkpoint, chain at MaxChain, dirty fraction at the
// rebase threshold, or Ckpt.DisableDelta — a fresh full snapshot rebases
// the chain. The dump runs concurrently with foreground transactions (it
// holds only a snapshot); only the WAL rotation and journal drain are a
// brief quiescent point.
func (g *Graph) Checkpoint() error {
	if g.opts.Dir == "" {
		return fmt.Errorf("livegraph: checkpoint requires a durable graph (Options.Dir)")
	}
	g.ckptMu.Lock()
	defer g.ckptMu.Unlock()
	// Eligibility: if the read epoch hasn't moved past the last completed
	// checkpoint, no commit group has been published since it — there is
	// nothing new to capture, and rewriting an identical snapshot (plus a
	// WAL rotation) would be pure write amplification. The dirty counter
	// resets below so DirtySinceCheckpoint tracks the same boundary.
	if g.epochs.ReadEpoch() == g.lastCkptEpoch.Load() {
		return nil
	}
	// Checkpoints are rare enough to trace unconditionally; the span tree
	// (quiesce → write → meta → prune children) shows where a slow one
	// spent its time.
	//lglint:ignore ctxprop trace-root only: checkpoints are engine-initiated background work with no caller deadline, and nothing blocks on this context
	cctx := context.Background()
	var csp *obs.Span
	if o := g.ob; o != nil {
		cctx, csp = o.tracer.StartAlways(cctx, "ckpt")
	}
	defer csp.End()
	// Compact before a FULL dump: draining the dirty set drops dead
	// entries and right-sizes blocks, so the snapshot file only carries
	// live state. A full pass holds one vertex lock at a time, so
	// foreground transactions keep committing throughout. The incremental
	// path skips this on purpose — a whole-graph compaction pass under a
	// small delta would put the O(|V|) cost the delta exists to avoid
	// right back on the checkpoint, and the snapshot scan skips dead
	// entries regardless. The prediction is a racy peek at the journal;
	// the authoritative full-vs-delta decision happens on the drained
	// count below, and a mispredicted full is merely a less-compact dump.
	if g.ckptBase == 0 || g.opts.Ckpt.DisableDelta ||
		len(g.ckptDeltas) >= g.opts.Ckpt.MaxChain ||
		float64(g.ckptDirty.Len()) >= g.opts.Ckpt.RebaseFraction*float64(g.NumVertices()) {
		g.CompactNow()
	}
	// Quiescent point. applyMu first (a follower's changes land under it),
	// then the committer's batch mutex: with both held no change can become
	// visible, so the snapshot, the WAL rotation, and the dirty-journal
	// drain below all cut the history at exactly the same epoch. Nothing
	// that holds commit.mu ever takes applyMu, so the ordering is safe.
	//
	// Rotating under commit.mu means no commit group is in flight, so
	// every record in the old segments has epoch <= E. The explicit
	// PublishRead barrier pins the quiescence invariant — everything
	// durable is also published (GRE >= DurableEpoch) at the rotation
	// point. Today the leader publishes before releasing the mutex so this
	// never blocks; if commit groups ever pipeline past the leader lock,
	// the barrier keeps this rotation point correct. (GWE would be the
	// wrong target: a group whose persist failed advances GWE but is never
	// published.)
	_, qsp := obs.StartSpan(cctx, "ckpt.quiesce")
	g.applyMu.Lock()
	g.commit.mu.Lock()
	g.epochs.WaitRead(g.log.Load().DurableEpoch())
	epoch := g.epochs.ReadEpoch()
	oldSegs, err := g.rotateWALLocked()
	if err != nil {
		g.commit.mu.Unlock()
		g.applyMu.Unlock()
		qsp.End()
		return err
	}
	// Capture while the committer mutex still pins g.walSeq: the meta's
	// MinWALSeq must name exactly the segment this rotation opened.
	minSeq := g.walSeq
	snap, err := g.Snapshot()
	if err != nil {
		g.commit.mu.Unlock()
		g.applyMu.Unlock()
		qsp.End()
		return err
	}
	// Drain the checkpoint journal at the same cut: marks happen only at
	// apply time under one of the two mutexes held here, so the drain
	// takes exactly the changes the snapshot sees — never a mark whose
	// change is still uncommitted.
	drained := g.ckptDirty.Drain(int(g.ckptDirty.Len()), nil)
	g.commit.mu.Unlock()
	g.applyMu.Unlock()
	qsp.End()
	defer snap.Release()

	// If anything below fails, the drained marks must go back: their
	// changes are not yet captured by any durable checkpoint, and losing
	// the marks would silently drop those vertices from every delta until
	// the next rebase.
	committed := false
	defer func() {
		if !committed {
			for _, d := range drained {
				g.ckptDirty.Mark(d.ID, 0)
			}
		}
	}()

	start := time.Now()
	full := g.ckptBase == 0 || g.opts.Ckpt.DisableDelta ||
		len(g.ckptDeltas) >= g.opts.Ckpt.MaxChain ||
		float64(len(drained)) >= g.opts.Ckpt.RebaseFraction*float64(snap.NumVertices())

	var (
		baseName    string
		baseEpoch   int64
		deltaEpochs []int64
		written     int64
	)
	wkind := "delta"
	if full {
		wkind = "full"
	}
	_, wsp := obs.StartSpan(cctx, "ckpt.write")
	wsp.SetAttr(obs.String("kind", wkind), obs.Int("dirty", int64(len(drained))))
	if full {
		path := filepath.Join(g.opts.Dir, fmt.Sprintf("ckpt-%d.snap", epoch))
		written, err = g.writeCheckpoint(path, epoch, snap)
		if err != nil {
			wsp.End()
			return err
		}
		if err := ckptStage("snap-durable"); err != nil {
			wsp.End()
			return err
		}
		baseName, baseEpoch = filepath.Base(path), epoch
	} else {
		prevEpoch := g.ckptBase
		if n := len(g.ckptDeltas); n > 0 {
			prevEpoch = g.ckptDeltas[n-1]
		}
		path := filepath.Join(g.opts.Dir, deltaFileName(epoch))
		written, err = g.writeDelta(path, g.ckptBase, prevEpoch, epoch, snap, drained)
		if err != nil {
			wsp.End()
			return err
		}
		if err := ckptStage("delta-durable"); err != nil {
			wsp.End()
			return err
		}
		// The meta's Path always names the base snapshot, full or delta.
		baseName, baseEpoch = fmt.Sprintf("ckpt-%d.snap", g.ckptBase), g.ckptBase
		deltaEpochs = append(append([]int64(nil), g.ckptDeltas...), epoch)
	}
	wsp.SetAttr(obs.Int("bytes", written))
	wsp.End()
	// MinWALSeq marks the segment opened at rotation as the first live
	// one: the prune below is best-effort (a crash mid-prune leaves
	// superseded segments behind), and recovery skips everything under
	// the mark.
	meta := wal.CheckpointMeta{
		Epoch:       epoch,
		BaseEpoch:   baseEpoch,
		Path:        baseName,
		MinWALSeq:   minSeq,
		DeltaEpochs: deltaEpochs,
	}
	_, msp := obs.StartSpan(cctx, "ckpt.meta")
	if err := wal.WriteCheckpointMeta(g.opts.Dir, meta); err != nil {
		msp.End()
		return err
	}
	msp.End()
	if err := ckptStage("meta-durable"); err != nil {
		return err
	}
	// The checkpoint is the recovery root now; commit the in-memory chain
	// view and reset the eligibility gauges before the best-effort prune
	// (a crash below re-prunes on recovery, it does not re-checkpoint).
	committed = true
	g.ckptBase = baseEpoch
	g.ckptDeltas = deltaEpochs
	g.lastCkptEpoch.Store(epoch)
	g.dirtySinceCkpt.Store(0)
	if full {
		g.ckptStats.Fulls.Add(1)
	} else {
		g.ckptStats.Deltas.Add(1)
	}
	elapsed := time.Since(start)
	g.ckptStats.LastNanos.Store(elapsed.Nanoseconds())
	g.ckptStats.LastBytes.Store(written)
	g.ckptStats.ChainLen.Store(int64(len(deltaEpochs)))
	if o := g.ob; o != nil {
		if full {
			o.ckptFull.Record(elapsed)
		} else {
			o.ckptDelta.Record(elapsed)
		}
		csp.SetAttr(obs.String("kind", wkind), obs.Int("epoch", epoch),
			obs.Int("bytes", written))
	}
	// Prune superseded segments and unreferenced checkpoint files.
	_, psp := obs.StartSpan(cctx, "ckpt.prune")
	defer psp.End()
	for _, s := range oldSegs {
		if err := g.opts.Backend.Remove(s); err != nil {
			g.ckptStats.PruneErrors.Add(1)
			g.notePruneError(s, err)
		}
	}
	g.pruneCheckpointFiles(baseName, deltaEpochs)
	return ckptStage("pruned")
}

// rotateWALLocked closes the current WAL segment and opens the next one.
// Caller holds the committer mutex. Returns the paths of all prior
// segments.
func (g *Graph) rotateWALLocked() ([]string, error) {
	cur := g.log.Load()
	if err := cur.Close(); err != nil {
		return nil, err
	}
	old, err := filepath.Glob(filepath.Join(g.opts.Dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	g.walSeq++
	l, err := wal.Open(g.opts.Dir, g.walSeq, g.opts.Backend)
	if err != nil {
		return nil, err
	}
	// Quiescent point: GRE == GWE, everything up to it is durable.
	l.SetDurableEpoch(g.epochs.ReadEpoch())
	g.instrumentWAL(l)
	// Retire the closed segment's byte count and swap the pointer as one
	// step, so WALAppendedBytes never sees the old segment twice or not
	// at all.
	g.walBytesMu.Lock()
	g.walBytes += cur.AppendedBytes()
	g.log.Store(l)
	g.walBytesMu.Unlock()
	return old, nil
}

// writeCheckpoint streams the snapshot to path under the backend's
// crash-atomic swap protocol: the bytes land in `<path>.tmp`, and only
// Commit (fsync tmp → rename → fsync dir) makes them visible under the
// final name. The earlier os.Create-at-final-path version could leave a
// half-written ckpt-E.snap that a crash-recovered CHECKPOINT pointer
// would then trust. Format:
//
//	magic, epoch, nextVertexID,
//	then per existing vertex: id, flags, data, numLabels,
//	  per label: label, numEdges, per edge: dst, propLen, props
//	terminated by id = -1.
//
// Returns the byte count streamed (the ckpt_last_bytes gauge).
func (g *Graph) writeCheckpoint(path string, epoch int64, snap *Snapshot) (int64, error) {
	af, err := g.opts.Backend.CreateAtomic(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: af}
	w := bufio.NewWriterSize(cw, 1<<20)
	w.Write(ckptMagic)
	var scratch [binary.MaxVarintLen64]byte
	putV := func(x int64) {
		n := binary.PutVarint(scratch[:], x)
		w.Write(scratch[:n])
	}
	putV(epoch)
	nv := snap.NumVertices()
	putV(nv)
	for v := int64(0); v < nv; v++ {
		data, ok := snap.VertexData(VertexID(v))
		ll := g.eindex.Get(v)
		if !ok && ll == nil {
			continue
		}
		putV(v)
		flags := int64(0)
		if !ok {
			flags |= 1 // deleted / absent payload
		}
		putV(flags)
		putV(int64(len(data)))
		w.Write(data)
		var labels []*labelEntry
		if ll != nil {
			if ls := ll.entries.Load(); ls != nil {
				labels = *ls
			}
		}
		putV(int64(len(labels)))
		for _, e := range labels {
			putV(int64(e.label))
			// Two passes: count, then dump (stream-friendly).
			cnt := snap.Degree(VertexID(v), e.label)
			putV(int64(cnt))
			snap.ScanNeighbors(VertexID(v), e.label, func(dst VertexID, props []byte) bool {
				putV(int64(dst))
				putV(int64(len(props)))
				w.Write(props)
				return true
			})
		}
	}
	putV(-1)
	if err := w.Flush(); err != nil {
		af.Abort()
		return 0, err
	}
	if err := ckptStage("snap-tmp"); err != nil {
		// Simulated crash: leave the temp file exactly as a real crash
		// would — present, unrenamed, for recovery's stray-tmp sweep.
		return 0, err
	}
	if err := af.Commit(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// loadCheckpoint rebuilds graph state from a checkpoint file, stamping
// every version with the checkpoint epoch.
func (g *Graph) loadCheckpoint(path string, epoch int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != string(ckptMagic) {
		return fmt.Errorf("livegraph: bad checkpoint magic in %s", path)
	}
	getV := func() (int64, error) { return binary.ReadVarint(r) }
	fileEpoch, err := getV()
	if err != nil {
		return err
	}
	if fileEpoch != epoch {
		return fmt.Errorf("livegraph: checkpoint epoch mismatch: meta %d, file %d", epoch, fileEpoch)
	}
	nv, err := getV()
	if err != nil {
		return err
	}
	g.nextVertex.Store(nv)
	h := g.alloc.NewHandle()
	for {
		v, err := getV()
		if err != nil {
			return fmt.Errorf("livegraph: checkpoint truncated: %w", err)
		}
		if v < 0 {
			return nil
		}
		flags, err := getV()
		if err != nil {
			return err
		}
		dl, err := getV()
		if err != nil {
			return err
		}
		data := make([]byte, dl)
		if _, err := io.ReadFull(r, data); err != nil {
			return err
		}
		if flags&1 == 0 {
			g.vindex.Set(v, &vertexVersion{ts: epoch, data: data})
		}
		nl, err := getV()
		if err != nil {
			return err
		}
		for li := int64(0); li < nl; li++ {
			label, err := getV()
			if err != nil {
				return err
			}
			ne, err := getV()
			if err != nil {
				return err
			}
			for ei := int64(0); ei < ne; ei++ {
				dst, err := getV()
				if err != nil {
					return err
				}
				pl, err := getV()
				if err != nil {
					return err
				}
				props := make([]byte, pl)
				if _, err := io.ReadFull(r, props); err != nil {
					return err
				}
				g.replayEdge(h, opInsertEdge, VertexID(v), Label(label), VertexID(dst), props, epoch, false)
			}
		}
	}
}

// WAL segment enumeration lives in the wal package (wal.Segments): the
// replication tailer follows the same listing recovery replays.
