package core

// The committer is the paper's transaction manager (§5): it forms commit
// groups, advances the global write epoch GWE, persists the group's
// write-ahead-log records (group commit), applies each member transaction
// (publish CT/LS, publish vertex versions, flip -TID timestamps to TWE,
// release locks) and finally advances the global read epoch GRE, exposing
// the group's updates to future transactions.
//
// Group formation uses the leader/follower pattern. A committing
// transaction enqueues itself and then waits, on its own goroutine, for the
// first of three events: its result arrives (another leader committed it),
// it wins the leader token (it drains the queue and commits the whole
// batch), or its context is done (it withdraws, if no leader has claimed
// it yet). An uncontended commit therefore runs inline on the caller's
// goroutine, while concurrent commits amortise the fsync across the group.
//
// The persist phase is the paper's: every transaction of a graph with a log
// buffers one WAL record as it executes, the leader hands the group's
// records to the log, and the log writes them as one checksummed frame
// under one fsync. GRE advances only after the whole group is durable and
// fully applied.

import (
	"context"
	"slices"
	"sync"
	"time"

	"livegraph/internal/obs"
)

type committer struct {
	g *Graph

	// lead is the leader token, a one-slot channel: whoever fills it may
	// drain and commit the queue, and a committing transaction competes for
	// it in the same select that watches its result and its context.
	// Checkpoint holds it for a quiescent point.
	lead chan struct{}

	qmu   sync.Mutex
	queue []*Tx
	spare []*Tx // the backing array the next drain hands to queue; token holder only
}

// maxGroupCommit caps how many transactions one WAL fsync may cover.
const maxGroupCommit = 256

func newCommitter(g *Graph) *committer {
	return &committer{g: g, lead: make(chan struct{}, 1)}
}

// lock takes the leader token, waiting for the current leader to finish.
func (c *committer) lock() { c.lead <- struct{}{} }

// unlock releases the leader token.
func (c *committer) unlock() { <-c.lead }

func (c *committer) enqueue(tx *Tx) {
	c.qmu.Lock()
	c.queue = append(c.queue, tx)
	c.qmu.Unlock()
}

// drain commits everything queued; the caller holds the token. The queue
// may hold transactions whose goroutines are still waiting for the token:
// they will find their result ready. The group size is naturally bounded by
// the number of worker slots, so the leader takes the whole queue; a drain
// larger than maxGroupCommit is committed in chunks, capping how many
// transactions one fsync covers. The two backing arrays swap roles, so a
// steady stream of commits enqueues without allocating.
func (c *committer) drain() {
	c.qmu.Lock()
	batch := c.queue
	c.queue = c.spare
	c.qmu.Unlock()
	for rest := batch; len(rest) > 0; {
		n := min(len(rest), maxGroupCommit)
		c.commitGroup(rest[:n])
		rest = rest[n:]
	}
	clear(batch)
	c.spare = batch[:0]
}

// leadGroup drains the queue for a caller that has just won the token, and
// releases the token. On a graph with a log the drain waits for an fsync,
// so a caller whose ctx can be done runs it on one goroutine for the group
// and returns false if ctx is done first; the group still runs to its
// verdict. Otherwise the drain runs inline and leadGroup returns true.
func (c *committer) leadGroup(ctx context.Context) bool {
	done := ctx.Done()
	if done == nil || !c.g.logged() {
		c.drain()
		c.unlock()
		return true
	}
	led := make(chan struct{})
	go func() {
		c.drain()
		c.unlock()
		close(led)
	}()
	select {
	case <-led:
		return true
	case <-done:
		return false
	}
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
			c.queue = slices.Delete(c.queue, i, i+1)
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
		g.applied(v, dead, true)
	}
	// Flip private timestamps to TWE. The paper releases locks before this
	// conversion; we flip first and release after, because compaction may
	// otherwise grab the vertex lock mid-flip, relocate the TEL, and strand
	// the -TID entries in the superseded block. Flips are a handful of
	// atomic stores, so the extra hold time is negligible.
	//
	// Invalidation flips are also where an entry definitively becomes
	// garbage: SetInvalidation adds its bytes (entry words + property
	// payload) to the TEL's own counter, and the same figure reaches the
	// maintenance dirty set through applied, replacing the write-path size
	// guesses.
	for _, w := range tx.telWrites {
		for _, i := range w.appended {
			w.cur.SetCreation(i, twe)
		}
		var dead int64
		for _, i := range w.invalidated {
			w.cur.SetInvalidation(i, twe)
			dead += w.cur.EntryDeadBytes(i)
		}
		if w.dirty() {
			g.applied(VertexID(w.cur.Src()), dead, true)
		}
	}
	tx.unlockAll()
}

// noteWriteCommitted ticks the commit-count compaction trigger (paper: a
// compaction task every CompactEvery transactions); n is the commit count
// this commit brought GraphStats.Commits to. It is one trigger among
// several: it wakes the scheduler regardless of the pressure thresholds.
func (g *Graph) noteWriteCommitted(n int64) {
	if n%int64(g.opts.CompactEvery) == 0 {
		g.maintSched.Kick()
	}
}
