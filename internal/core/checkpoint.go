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
	"livegraph/internal/storage"
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
	cctx, csp := g.ob.tracer.StartAlways(context.Background(), "ckpt")
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
	if g.ckptWantsFull(g.ckptDirty.Len(), g.NumVertices()) {
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
	// One reading of the vertex frontier serves the decision, the header
	// and the full dump's loop bound: the dump runs outside the quiescent
	// point, AddVertex keeps raising the live value under it, and a record
	// at or past the header's nextVertexID is what the loader calls damage.
	nv := snap.NumVertices()
	full := g.ckptWantsFull(int64(len(drained)), nv)

	var (
		baseName    string
		baseEpoch   int64
		deltaEpochs []int64
		written     int64
	)
	wkind, durable := "delta", "delta-durable"
	if full {
		wkind, durable = "full", "snap-durable"
	}
	_, wsp := obs.StartSpan(cctx, "ckpt.write")
	wsp.SetAttr(obs.String("kind", wkind), obs.Int("dirty", int64(len(drained))))
	if full {
		baseName, baseEpoch = fmt.Sprintf("ckpt-%d.snap", epoch), epoch
		written, err = g.writeCkptFile(filepath.Join(g.opts.Dir, baseName), ckptMagic,
			[]int64{epoch, nv}, "snap-tmp", snap, nil)
	} else {
		prevEpoch := g.ckptBase
		if n := len(g.ckptDeltas); n > 0 {
			prevEpoch = g.ckptDeltas[n-1]
		}
		written, err = g.writeDelta(filepath.Join(g.opts.Dir, deltaFileName(epoch)), g.ckptBase, prevEpoch, epoch, nv, snap, drained)
		// The meta's Path always names the base snapshot, full or delta.
		baseName, baseEpoch = fmt.Sprintf("ckpt-%d.snap", g.ckptBase), g.ckptBase
		deltaEpochs = append(append([]int64(nil), g.ckptDeltas...), epoch)
	}
	if err == nil {
		err = ckptStage(durable)
	}
	if err != nil {
		wsp.End()
		return err
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
	elapsed := time.Since(start)
	if full {
		g.ckptStats.Fulls.Add(1)
		g.ob.ckptFull.Record(elapsed)
	} else {
		g.ckptStats.Deltas.Add(1)
		g.ob.ckptDelta.Record(elapsed)
	}
	g.ckptStats.LastNanos.Store(elapsed.Nanoseconds())
	g.ckptStats.LastBytes.Store(written)
	g.ckptStats.ChainLen.Store(int64(len(deltaEpochs)))
	csp.SetAttr(obs.String("kind", wkind), obs.Int("epoch", epoch), obs.Int("bytes", written))
	// Prune superseded segments and unreferenced checkpoint files.
	_, psp := obs.StartSpan(cctx, "ckpt.prune")
	defer psp.End()
	for _, s := range oldSegs {
		g.pruneFile(s)
	}
	g.pruneCheckpointFiles(baseName, deltaEpochs)
	return ckptStage("pruned")
}

// ckptWantsFull is the full-vs-delta rule: a fresh full snapshot when
// there is no base to chain from, deltas are disabled, the chain is at
// MaxChain, or dirty of vertices reaches the rebase fraction. Caller
// holds ckptMu.
func (g *Graph) ckptWantsFull(dirty, vertices int64) bool {
	return g.ckptBase == 0 || g.opts.Ckpt.DisableDelta ||
		len(g.ckptDeltas) >= g.opts.Ckpt.MaxChain ||
		float64(dirty) >= g.opts.Ckpt.RebaseFraction*float64(vertices)
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

// Checkpoint files, full and delta, are a magic, a header of signed
// varints, and one record body:
//
//	per vertex (ascending ID): id, flags, data, numLabels,
//	  per label: label, numEdges, per edge: dst, propLen, props
//	terminated by id = -1.
//
// Flags bit 0 marks a deleted or absent payload. The formats differ only
// in header and in which vertices get a record: one codec serves both.

// writeCkptFile streams magic, header and the records of ids to path
// under the backend's crash-atomic swap protocol: the bytes land in
// `<path>.tmp`, and only Commit (fsync tmp → rename → fsync dir) makes
// them visible under the final name, so a recovered CHECKPOINT pointer
// never finds a half-written file. Both headers end in nextVertexID,
// which is also where a full dump (nil ids) stops. tmpStage names the
// crash window before the rename. Returns the bytes streamed (the
// ckpt_last_bytes gauge).
func (g *Graph) writeCkptFile(path string, magic []byte, header []int64, tmpStage string, snap *Snapshot, ids []int64) (int64, error) {
	af, err := g.opts.Backend.CreateAtomic(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: af}
	w := bufio.NewWriterSize(cw, 1<<20)
	w.Write(magic)
	for _, x := range header {
		putVarint(w, x)
	}
	g.writeCkptRecords(w, snap, ids, header[len(header)-1])
	if err := w.Flush(); err != nil {
		af.Abort()
		return 0, err
	}
	if err := ckptStage(tmpStage); err != nil {
		// Simulated crash: leave the temp file exactly as a real crash
		// would — present, unrenamed, for recovery's stray-tmp sweep.
		return 0, err
	}
	if err := af.Commit(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

func putVarint(w *bufio.Writer, x int64) {
	w.Write(binary.AppendVarint(w.AvailableBuffer(), x))
}

// writeCkptRecords writes the record body for ids, which must ascend. A
// nil ids is the full dump: every vertex below nv, the header's
// nextVertexID (not the live frontier, which moves during the dump),
// leaving out those with neither payload nor label index. Explicit ids (a
// delta) are all written, a vertex with nothing left included: its record
// is what erases the vertex's earlier state at load time. Write errors
// stick to w and surface at the caller's Flush.
func (g *Graph) writeCkptRecords(w *bufio.Writer, snap *Snapshot, ids []int64, nv int64) {
	n := int64(len(ids))
	if ids == nil {
		n = nv
	}
	for i := int64(0); i < n; i++ {
		v := i
		if ids != nil {
			v = ids[i]
		}
		data, ok := snap.VertexData(VertexID(v))
		ll := g.eindex.Get(v)
		if ids == nil && !ok && ll == nil {
			continue
		}
		putVarint(w, v)
		flags := int64(0)
		if !ok {
			flags |= 1 // deleted / absent payload
		}
		putVarint(w, flags)
		putVarint(w, int64(len(data)))
		w.Write(data)
		var labels []*labelEntry
		if ll != nil {
			if ls := ll.entries.Load(); ls != nil {
				labels = *ls
			}
		}
		putVarint(w, int64(len(labels)))
		for _, e := range labels {
			putVarint(w, int64(e.label))
			// Two passes: count, then dump (stream-friendly).
			putVarint(w, int64(snap.Degree(VertexID(v), e.label)))
			snap.ScanNeighbors(VertexID(v), e.label, func(dst VertexID, props []byte) bool {
				putVarint(w, int64(dst))
				putVarint(w, int64(len(props)))
				w.Write(props)
				return true
			})
		}
	}
	putVarint(w, -1)
}

// ckptReader reads one checkpoint file of a known size. Checkpoint files
// carry no checksum, so every length and count read from one is checked
// against the bytes the file still holds before anything is allocated or
// looped over. The first damage found sticks in err and every later read
// returns zero, so callers check err once per record.
type ckptReader struct {
	*bufio.Reader
	src io.LimitedReader // N: bytes of the file the buffer has not pulled yet
	err error
}

func newCkptReader(src io.Reader, size int64) *ckptReader {
	r := &ckptReader{src: io.LimitedReader{R: src, N: size}}
	r.Reader = bufio.NewReaderSize(&r.src, 1<<20)
	return r
}

func (r *ckptReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCheckpointDamaged, fmt.Sprintf(format, args...))
	}
}

// varint reads one number. The file ending inside or before it is damage:
// a complete body ends with the -1 terminator, never with EOF.
func (r *ckptReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, err := binary.ReadVarint(r.Reader)
	if err != nil {
		r.fail("truncated: %v", err)
		return 0
	}
	return x
}

// count reads a length or element count. Every counted thing occupies at
// least one byte, so a value past what the file still holds is damage.
func (r *ckptReader) count(what string) int64 {
	n := r.varint()
	if left := r.left(); n < 0 || n > left {
		r.fail("%s %d with %d bytes left", what, n, left)
		return 0
	}
	return n
}

// left returns how many bytes of the file are not yet consumed.
func (r *ckptReader) left() int64 { return r.src.N + int64(r.Buffered()) }

// bytes reads a length-prefixed payload.
func (r *ckptReader) bytes(what string) []byte {
	b := make([]byte, r.count(what))
	if _, err := io.ReadFull(r.Reader, b); err != nil {
		r.fail("truncated: %v", err)
	}
	return b
}

// loadCkptFile loads one checkpoint file during recovery: magic, header
// (chain, then nextVertexID) and records, stamped with the file's own
// epoch, the last element of chain. chain is what the CHECKPOINT meta says
// the header holds: a full snapshot's epoch; a delta's base, predecessor
// and own epoch, so a stale or reordered delta is never replayed.
func (g *Graph) loadCkptFile(path string, magic []byte, chain ...int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	r := newCkptReader(f, st.Size())
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil || string(got) != string(magic) {
		return fmt.Errorf("livegraph: bad magic in %s, want %q", path, magic)
	}
	for i, want := range chain {
		if got := r.varint(); r.err == nil && got != want {
			return fmt.Errorf("livegraph: checkpoint chain mismatch in %s: header field %d is %d, meta says %d", path, i, got, want)
		}
	}
	nv := r.varint()
	if r.err == nil {
		if nv > g.nextVertex.Load() {
			g.nextVertex.Store(nv)
		}
		g.loadCkptRecords(r, nv, chain[len(chain)-1], g.alloc.NewHandle())
	}
	if r.err != nil {
		return fmt.Errorf("%s: %w", path, r.err)
	}
	return nil
}

// loadCkptRecords rebuilds graph state from one record body, stamping
// every version with epoch; damage is left in r.err. Each record fully
// replaces its vertex (see ckpt_delta.go; a base snapshot's records find
// nothing to drop). Single-threaded — recovery has no readers yet, so
// each TEL owns its block outright and a direct free is safe. nv is the
// header's nextVertexID: the writer emits IDs ascending and below it. The
// bound is there to cap index growth — chunkedIndex.Set allocates every
// 512 KiB chunk up to v>>16 — at what a graph of nv IDs costs anyway. nv
// itself cannot be held to the file's size: both formats leave vertices
// out, so an ID gap of any width costs no bytes (see
// TestSparseCheckpointLoads), and damage to the header and a record ID
// together is past what a format with no checksum can catch.
func (g *Graph) loadCkptRecords(r *ckptReader, nv, epoch int64, h *storage.Handle) {
	for last := int64(-1); ; {
		v := r.varint()
		if r.err != nil || v < 0 {
			return
		}
		if v <= last || v >= nv {
			r.fail("vertex record %d after %d, nextVertexID %d", v, last, nv)
			return
		}
		last = v
		flags := r.varint()
		data := r.bytes("vertex data length")
		if r.err != nil {
			return
		}
		if ll := g.eindex.Get(v); ll != nil {
			if ls := ll.entries.Load(); ls != nil {
				for _, e := range *ls {
					if t := e.tel.Load(); t != nil {
						h.Free(t.Block)
					}
				}
			}
			g.eindex.Set(v, nil)
		}
		var ver *vertexVersion
		if flags&1 == 0 {
			ver = &vertexVersion{ts: epoch, data: data}
		}
		g.vindex.Set(v, ver)
		for nl := r.count("label count"); nl > 0 && r.err == nil; nl-- {
			label := r.varint()
			for ne := r.count("edge count"); ne > 0; ne-- {
				dst := r.varint()
				props := r.bytes("property length")
				if r.err != nil {
					return
				}
				g.replayEdge(h, opInsertEdge, VertexID(v), Label(label), VertexID(dst), props, epoch, false)
			}
		}
	}
}

// WAL segment enumeration lives in the wal package (wal.Segments): the
// replication tailer follows the same listing recovery replays.
