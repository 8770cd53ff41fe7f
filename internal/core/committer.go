package core

// The committer is the paper's transaction manager (§5): it forms commit
// groups, advances the global write epoch GWE, persists the group's
// write-ahead-log records (group commit), applies each member transaction
// (publish CT/LS, publish vertex versions, flip -TID timestamps to TWE,
// release locks) and finally advances the global read epoch GRE, exposing
// the group's updates to future transactions.
//
// Group formation uses the leader/follower pattern: a committing
// transaction enqueues itself and competes for the leader lock; the winner
// drains the queue and commits the whole batch, so an uncontended commit
// runs inline with no goroutine handoff while concurrent commits amortise
// the fsync across the group.
//
// The persist phase is the paper's: every transaction buffers one WAL
// record as it executes, the leader hands the group's records to the log,
// and the log writes them as one checksummed frame under one fsync. GRE
// advances only after the whole group is durable and fully applied.

import (
	"context"
	"sync"
	"time"

	"livegraph/internal/obs"
)

type committer struct {
	g *Graph

	mu sync.Mutex // leader lock; Checkpoint acquires it for a quiescent point

	qmu   sync.Mutex
	queue []*Tx
}

// maxGroupCommit caps how many transactions one WAL fsync may cover.
const maxGroupCommit = 256

func newCommitter(g *Graph) *committer {
	return &committer{g: g}
}

// submit enqueues tx and returns once some leader has committed it. The
// result arrives on tx.commitRes.
func (c *committer) submit(tx *Tx) {
	c.qmu.Lock()
	c.queue = append(c.queue, tx)
	c.qmu.Unlock()

	// Compete for leadership. Whoever wins drains and commits everything
	// queued — possibly including transactions enqueued by goroutines that
	// are still waiting for the lock; they will find their result ready.
	// The group size is naturally bounded by the number of worker slots,
	// so the leader drains the whole queue (every drained transaction's
	// goroutine finds its result ready when it gets the lock). A drain
	// larger than maxGroupCommit is committed in chunks, capping how many
	// transactions one fsync covers.
	c.mu.Lock()
	c.qmu.Lock()
	batch := c.queue
	c.queue = nil
	c.qmu.Unlock()
	for len(batch) > 0 {
		n := len(batch)
		if n > maxGroupCommit {
			n = maxGroupCommit
		}
		c.commitGroup(batch[:n])
		batch = batch[n:]
	}
	c.mu.Unlock()
}

// withdraw removes tx from the commit queue if no leader has claimed it
// yet, returning whether it succeeded. Queue membership is guarded by qmu,
// so a true result guarantees no leader will ever see the transaction —
// CommitCtx uses this to turn a deadline into a definitive abort.
func (c *committer) withdraw(tx *Tx) bool {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for i, q := range c.queue {
		if q == tx {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

func (c *committer) commitGroup(batch []*Tx) {
	g := c.g

	// Observability: one sampled span per group with persist/apply stage
	// children, the apply-phase histogram, and slow-op capture for
	// unsampled groups.
	o := g.ob
	//lglint:ignore ctxprop trace-root only: group commit runs on behalf of many callers, no single deadline applies and nothing blocks on this context
	gctx, gsp := o.tracer.StartSpan(context.Background(), "commit.group")
	gsp.SetAttr(obs.Int("txs", int64(len(batch))))
	t0 := time.Now()

	// Persist phase: advance GWE, write the group's records as one frame
	// and fsync it.
	twe := g.epochs.AdvanceWrite()
	if log := g.log.Load(); log != nil {
		recs := make([][]byte, 0, len(batch))
		for _, tx := range batch {
			if len(tx.walBuf) > 0 {
				recs = append(recs, tx.walBuf)
			}
		}
		_, psp := obs.StartSpan(gctx, "commit.persist")
		err := log.AppendGroup(twe, recs)
		psp.End()
		if err != nil {
			// Durability failed: the group must not become visible.
			gsp.SetAttr(obs.String("error", err.Error()))
			gsp.MarkSlow()
			gsp.End()
			for _, tx := range batch {
				tx.revert()
				tx.unlockAll()
				tx.commitRes <- err
			}
			return
		}
	}

	// Apply phase, per member: publish tails and vertex versions, flip
	// private timestamps, release locks.
	applyStart := time.Now()
	_, asp := obs.StartSpan(gctx, "commit.apply")
	for _, tx := range batch {
		c.apply(tx, twe)
	}
	asp.End()
	o.commitApply.Record(time.Since(applyStart))

	// The whole group has applied: expose it to future transactions.
	g.epochs.PublishRead(twe)
	for _, tx := range batch {
		tx.commitEpoch = twe
		tx.commitRes <- nil
	}
	gsp.SetAttr(obs.Int("epoch", twe))
	gsp.End()
	if gsp == nil {
		// Unsampled groups still surface in the slow-op log.
		o.tracer.SlowOp("commit.group", time.Since(t0),
			obs.Int("txs", int64(len(batch))), obs.Int("epoch", twe))
	}
}

func (c *committer) apply(tx *Tx, twe int64) {
	g := c.g
	// Publish each modified TEL's commit timestamp and tail (atomic LS
	// store is the release point readers synchronise on). The degree
	// statistics ride the same loop: entry-count movement from the
	// published tail, visible-edge delta from the append/invalidate sets
	// (a pending insert the same transaction deleted appears in both and
	// nets to zero).
	for _, w := range tx.telWrites {
		if w.dirty() {
			oldN := w.cur.Len()
			w.cur.Publish(w.n, w.propLen, twe)
			label := Label(w.cur.Label())
			g.statsPublish(label, oldN, w.n)
			g.statsEdges(label, int64(len(w.appended)-len(w.invalidated)))
		}
	}
	// Publish vertex versions (copy-on-write chain push).
	for v, wv := range tx.vWrites {
		prev := g.vindex.Get(int64(v))
		g.vindex.Set(int64(v), &vertexVersion{ts: twe, data: wv.data, deleted: wv.deleted, prev: prev})
		var dead int64
		if prev != nil {
			dead = entryDeadBytes + int64(len(prev.data))
		}
		g.markDirty(v, dead)
		g.markCkptDirty(v)
	}
	// Flip private timestamps to TWE. The paper releases locks before this
	// conversion; we flip first and release after, because compaction may
	// otherwise grab the vertex lock mid-flip, relocate the TEL, and strand
	// the -TID entries in the superseded block. Flips are a handful of
	// atomic stores, so the extra hold time is negligible.
	//
	// Invalidation flips are also where an entry definitively becomes
	// garbage, so the exact dead bytes (entry words + property payload)
	// are accumulated here — into the TEL's own counter and the
	// maintenance dirty set — replacing the write-path size guesses.
	for _, w := range tx.telWrites {
		for _, i := range w.appended {
			w.cur.SetCreation(i, twe)
		}
		var dead int64
		for _, i := range w.invalidated {
			w.cur.SetInvalidation(i, twe)
			dead += w.cur.EntryDeadBytes(i)
		}
		if dead > 0 {
			w.cur.AddDeadBytes(dead)
		}
		if w.dirty() {
			src := VertexID(w.cur.Src())
			g.dirty.Mark(int64(src), dead)
			g.markCkptDirty(src)
		}
	}
	tx.unlockAll()
}

// noteWriteCommitted ticks the commit-count compaction trigger (paper: a
// compaction task every CompactEvery transactions). With the background
// scheduler this is one trigger among several — it force-wakes the
// scheduler regardless of the pressure thresholds.
func (g *Graph) noteWriteCommitted() {
	if g.maintSched == nil {
		return
	}
	if n := g.writeTxns.Add(1); n%int64(g.opts.CompactEvery) == 0 {
		g.maintSched.Kick()
	}
}
