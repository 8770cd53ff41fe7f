package core

// Checkpointing (paper §6, "Recovery"): a checkpointer periodically persists
// the latest consistent snapshot using a read-only transaction and prunes
// WAL entries written before the snapshot's epoch. On failure, recovery
// loads the latest checkpoint and replays the remaining WAL.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"livegraph/internal/obs"
	"livegraph/internal/wal"
)

var ckptMagic = []byte("LGCKPT2\n")

// ckptCrashHook, when set (crash-matrix tests only), is invoked at each
// named stage of the checkpoint swap protocol. Returning an error aborts
// the checkpoint at exactly that point — the in-process equivalent of
// dying there — and the process-crash tests os.Exit inside the hook
// instead.
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
// otherwise — first checkpoint, chain at MaxChain, or dirty fraction at
// the rebase threshold — a fresh full snapshot rebases the chain. The
// dump runs concurrently with foreground transactions (it holds only a
// snapshot); only the WAL rotation and journal drain are a brief
// quiescent point.
func (g *Graph) Checkpoint() error {
	if g.opts.Dir == "" {
		return fmt.Errorf("livegraph: checkpoint requires a durable graph (Options.Dir)")
	}
	g.ckptMu.Lock()
	defer g.ckptMu.Unlock()
	// Eligibility: if the read epoch hasn't moved past the last completed
	// checkpoint, no commit group has been published since it — there is
	// nothing new to capture, and rewriting an identical snapshot (plus a
	// WAL rotation) would be pure write amplification.
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
	// then the committer's leader token: with both held no change can
	// become visible, so the snapshot, the WAL rotation, and the
	// dirty-journal drain below all cut the history at exactly the same
	// epoch. No token holder ever takes applyMu, so the ordering is safe.
	//
	// Rotating under the token means no commit group is in flight, so
	// every record in the old segments has epoch <= E. The explicit
	// PublishRead barrier pins the quiescence invariant — everything
	// durable is also published (GRE >= DurableEpoch) at the rotation
	// point. Today the leader publishes before releasing the token so this
	// never blocks; if commit groups ever pipeline past the token, the
	// barrier keeps this rotation point correct. (GWE would be the wrong
	// target: a group whose persist failed advances GWE but is never
	// published.)
	_, qsp := obs.StartSpan(cctx, "ckpt.quiesce")
	g.applyMu.Lock()
	g.commit.lock()
	g.epochs.WaitRead(g.log.Load().DurableEpoch())
	epoch := g.epochs.ReadEpoch()
	oldSegs, err := g.rotateWALLocked()
	if err != nil {
		g.commit.unlock()
		g.applyMu.Unlock()
		qsp.End()
		return err
	}
	// Capture while the leader token still pins g.walSeq: the meta's
	// MinWALSeq must name exactly the segment this rotation opened.
	minSeq := g.walSeq
	snap, err := g.Snapshot()
	if err != nil {
		g.commit.unlock()
		g.applyMu.Unlock()
		qsp.End()
		return err
	}
	// Drain the checkpoint journal at the same cut: marks happen only at
	// apply time under one of the two locks held here, so the drain
	// takes exactly the changes the snapshot sees — never a mark whose
	// change is still uncommitted.
	drained := g.ckptDirty.Drain(int(g.ckptDirty.Len()), nil)
	g.commit.unlock()
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

	// MinWALSeq marks the segment opened at rotation as the first live
	// one: the prune below is best-effort (a crash mid-prune leaves
	// superseded segments behind), and recovery skips everything under
	// the mark.
	meta := wal.CheckpointMeta{BaseEpoch: epoch, MinWALSeq: minSeq}
	var written int64
	wkind, durable := "delta", "delta-durable"
	if full {
		wkind, durable = "full", "snap-durable"
	}
	_, wsp := obs.StartSpan(cctx, "ckpt.write")
	wsp.SetAttr(obs.String("kind", wkind), obs.Int("dirty", int64(len(drained))))
	if full {
		written, err = g.writeCkptFile(filepath.Join(g.opts.Dir, snapFileName(epoch)), ckptMagic,
			[]int64{epoch}, nv, "snap-tmp", snap, nil)
	} else {
		prevEpoch := g.ckptBase
		if n := len(g.ckptDeltas); n > 0 {
			prevEpoch = g.ckptDeltas[n-1]
		}
		written, err = g.writeDelta(filepath.Join(g.opts.Dir, deltaFileName(epoch)), g.ckptBase, prevEpoch, epoch, nv, snap, drained)
		meta.BaseEpoch = g.ckptBase
		meta.DeltaEpochs = append(append([]int64(nil), g.ckptDeltas...), epoch)
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
	// view and move the eligibility epoch before the best-effort prune
	// (a crash below re-prunes on recovery, it does not re-checkpoint).
	committed = true
	g.ckptBase = meta.BaseEpoch
	g.ckptDeltas = meta.DeltaEpochs
	g.lastCkptEpoch.Store(epoch)
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
	g.ckptStats.ChainLen.Store(int64(len(meta.DeltaEpochs)))
	csp.SetAttr(obs.String("kind", wkind), obs.Int("epoch", epoch), obs.Int("bytes", written))
	// Prune superseded segments and unreferenced checkpoint files.
	_, psp := obs.StartSpan(cctx, "ckpt.prune")
	defer psp.End()
	for _, s := range oldSegs {
		g.pruneFile(s)
	}
	g.pruneCheckpointFiles(meta)
	return ckptStage("pruned")
}

// ckptWantsFull is the full-vs-delta rule: a fresh full snapshot when
// there is no base to chain from, the chain is at MaxChain, or dirty of
// vertices reaches the rebase fraction. Caller holds ckptMu.
func (g *Graph) ckptWantsFull(dirty, vertices int64) bool {
	return g.ckptBase == 0 || len(g.ckptDeltas) >= g.opts.Ckpt.MaxChain ||
		float64(dirty) >= g.opts.Ckpt.RebaseFraction*float64(vertices)
}

// rotateWALLocked closes the current WAL segment and opens the next one.
// Caller holds the leader token. Returns the paths of all prior
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

// Checkpoint files, full and delta, are a magic followed by WAL frames
// (internal/wal), all stamped with the checkpoint's epoch: a header frame
// of varints — the chain (a snapshot's epoch; a delta's base, predecessor
// and own epoch), then nextVertexID — then one record per vertex in
// ascending ID (opResetVertex; opPutVertex if it has a payload; one
// opInsertEdge per live edge), cut into frames once a body passes
// wal.CheckpointFrameBytes, then an empty end frame. One writer and one
// loader serve both files; load applies the ops through decodeOps →
// applyOp, the path WAL replay and a follower take.

// writeCkptFile streams a checkpoint to path under the backend's
// crash-atomic swap protocol: the bytes land in `<path>.tmp`, and only
// Commit (fsync tmp → rename → fsync dir) makes them visible under the
// final name, so a recovered CHECKPOINT pointer never finds a
// half-written file. tmpStage names the crash window before the rename.
// Returns the bytes streamed (the ckpt_last_bytes gauge).
func (g *Graph) writeCkptFile(path string, magic []byte, chain []int64, nv int64, tmpStage string, snap *Snapshot, ids []int64) (int64, error) {
	af, err := g.opts.Backend.CreateAtomic(path)
	if err != nil {
		return 0, err
	}
	n, err := g.writeCkpt(af, magic, chain, nv, snap, ids)
	if err != nil {
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
	return n, nil
}

// writeCkpt writes magic and the frames of the checkpoint at chain's last
// epoch holding the vertices ids, which must ascend, and returns the bytes
// written. A nil ids is the full dump: every vertex below nv, the
// header's nextVertexID (not the live frontier, which moves during the
// dump), leaving out those with neither payload nor label index. Explicit
// ids (a delta) are all written, a vertex with nothing left included: its
// reset is what erases the vertex's earlier state at load time.
func (g *Graph) writeCkpt(w io.Writer, magic []byte, chain []int64, nv int64, snap *Snapshot, ids []int64) (written int64, err error) {
	// buf holds the frame's records back to back: recs the finished ones,
	// then the open one from offset open.
	var (
		buf, frame []byte
		open       int
		recs       [][]byte
	)
	write := func(p []byte) {
		if err == nil {
			var k int
			k, err = w.Write(p)
			written += int64(k)
		}
	}
	endRecord := func() {
		if len(buf) > open {
			recs, open = append(recs, buf[open:len(buf):len(buf)]), len(buf)
		}
	}
	flush := func() { // the finished records as one frame; none: the end frame
		frame = wal.AppendFrame(frame[:0], chain[len(chain)-1], recs)
		write(frame)
		buf, open, recs = buf[:0], 0, recs[:0]
	}
	opDone := func() { // past the cut, a vertex's ops go on in the next frame
		if len(buf)+4*(len(recs)+1) > wal.CheckpointFrameBytes {
			endRecord()
			flush()
		}
	}
	write(magic)
	for _, x := range chain {
		buf = binary.AppendVarint(buf, x)
	}
	buf = binary.AppendVarint(buf, nv)
	endRecord()
	flush()
	n := int64(len(ids))
	if ids == nil {
		n = nv
	}
	for i := int64(0); i < n && err == nil; i++ {
		v := VertexID(i)
		if ids != nil {
			v = VertexID(ids[i])
		} else if c := uint64(i) >> chunkBits; i&(chunkSize-1) == 0 && g.vindex.chunk(c) == nil && g.eindex.chunk(c) == nil {
			i += chunkSize - 1 // a chunk of IDs with neither payload nor label index
			continue
		}
		data, verr := snap.GetVertex(v)
		ok := verr == nil
		ll := g.eindex.Get(int64(v))
		if ids == nil && !ok && ll == nil {
			continue
		}
		buf = appendVertexOp(buf, opResetVertex, v, nil)
		if ok {
			buf = appendVertexOp(buf, opPutVertex, v, data)
		}
		opDone()
		for j := 0; ll != nil && j < len(ll.entries); j++ {
			label := ll.entries[j].label
			snap.ScanNeighbors(v, label, func(dst VertexID, props []byte) bool {
				buf = appendEdgeOp(buf, opInsertEdge, v, label, dst, props)
				opDone()
				return true
			})
		}
		endRecord()
	}
	if len(recs) > 0 {
		flush()
	}
	flush()
	return written, err
}

// loadCkptFile loads one checkpoint file during recovery. chain is what
// the CHECKPOINT meta says its header holds: a full snapshot's epoch; a
// delta's base, predecessor and own epoch, so a stale or reordered delta
// is never replayed. Any rule the file breaks is ErrCheckpointDamaged
// naming it.
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
	if err := g.loadCkpt(bufio.NewReaderSize(f, 1<<20), st.Size(), magic, chain); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCheckpointDamaged, path, err)
	}
	return nil
}

// loadCkpt reads a checkpoint of size bytes from r, stamping what it
// loads with chain's last epoch. Every frame must verify and carry that
// epoch, the file must end exactly at the end frame, and every op must
// decode and keep the writer's order: resets of ascending IDs below the
// header's nextVertexID, each followed only by its own vertex's put and
// edge inserts. nextVertexID is not held to the file's size: an ID gap
// costs no bytes (TestSparseCheckpointLoads), and the per-vertex indexes
// allocate only the chunks that hold a record.
//
// Recovery is single-threaded, so applyOp's vertex locks are uncontended
// and the Reclaim after each frame frees what it retired. applyOp neither
// journals nor queues: the frontier comes from the header, and the state
// is already checkpointed.
func (g *Graph) loadCkpt(r io.Reader, size int64, magic []byte, chain []int64) error {
	epoch := chain[len(chain)-1]
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil || !bytes.Equal(head, magic) {
		return fmt.Errorf("magic %q, want %q", head, magic)
	}
	left := size - int64(len(magic))
	next := func() (f wal.Frame, err error) {
		if f, err = wal.ReadFrame(r, left); errors.Is(err, io.EOF) {
			err = errors.New("no end frame")
		} else if err == nil && f.Epoch != epoch {
			err = fmt.Errorf("frame epoch %d, want %d", f.Epoch, epoch)
		}
		left -= int64(len(f.Raw))
		return f, err
	}
	f, err := next()
	if err != nil {
		return err
	}
	if len(f.Recs) != 1 {
		return fmt.Errorf("header frame holds %d records", len(f.Recs))
	}
	var hdr []int64 // the chain, then nextVertexID
	for rec := f.Recs[0]; len(rec) > 0; {
		x, n := binary.Varint(rec)
		if n <= 0 {
			return errors.New("malformed header record")
		}
		hdr, rec = append(hdr, x), rec[n:]
	}
	if len(hdr) != len(chain)+1 || !slices.Equal(hdr[:len(chain)], chain) || hdr[len(chain)] < 0 {
		return fmt.Errorf("header %v, the meta says chain %v", hdr, chain)
	}
	nv := hdr[len(chain)]
	if nv > g.nextVertex.Load() {
		g.nextVertex.Store(nv)
	}
	cur := VertexID(-1)
	var ops []walOp
	for {
		if f, err = next(); err != nil {
			return err
		}
		if len(f.Recs) == 0 {
			break
		}
		for _, rec := range f.Recs {
			if ops, err = decodeOps(ops[:0], rec); err != nil {
				return err
			}
			for _, op := range ops {
				switch {
				case op.op == opResetVertex && op.v > cur && int64(op.v) < nv:
					cur = op.v
				case op.op == opPutVertex && op.v == cur:
				case op.op == opInsertEdge && op.v == cur:
				default:
					return fmt.Errorf("op %d on vertex %d after vertex %d, nextVertexID %d", op.op, op.v, cur, nv)
				}
				g.applyOp(op, epoch, false)
			}
		}
		g.alloc.Reclaim(epoch)
	}
	if left != 0 {
		return fmt.Errorf("%d bytes after the end frame", left)
	}
	return nil
}

// WAL segment enumeration lives in the wal package (wal.Segments): the
// replication tailer follows the same listing recovery replays.
