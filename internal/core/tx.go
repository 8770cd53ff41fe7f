package core

import (
	"context"
	"fmt"
	"time"

	"livegraph/internal/mvcc"
	"livegraph/internal/obs"
	"livegraph/internal/tel"
)

// Tx is a transaction. Write transactions follow the paper's three phases:
// a work phase executed by the caller's goroutine (lock, append private
// entries tagged -TID), then persist and apply phases executed by the group
// committer when Commit is called. Read-only transactions just pin a read
// epoch (snapshot isolation: they never block and are never blocked).
//
// A Tx is not safe for concurrent use by multiple goroutines.
type Tx struct {
	g    *Graph
	ctx  context.Context // bounds lock waits; Background for Begin
	slot int
	tre  int64 // transaction-local read epoch (TRE)
	tid  int64 // transaction identifier; writes are tagged -tid
	ro   bool
	done bool

	locked      map[uint64]struct{} // held lock stripes (dedup by stripe, not vertex)
	telWrites   map[telKey]*telWrite
	created     []*telWrite // the lists this transaction creates, private until commit, in creation order
	vWrites     map[VertexID]*vertexWrite
	walBuf      []byte // this transaction's WAL record: its ops, in execution order; empty without a log
	commitRes   chan error
	commitEpoch int64 // the group's commit epoch, set by the leader on success

	// Observability: span is the transaction's sampled trace root (nil
	// when unsampled), ended by finish; commitStart stamps the submit →
	// settle window for the commit-latency histogram.
	span        *obs.Span
	commitStart time.Time
}

// CommitEpoch returns the epoch this transaction's commit group was
// stamped with — the handle for read-your-writes routing: a reader that
// observes this epoch (or later) sees the transaction's effects. Valid
// only after Commit/CommitCtx returned nil; 0 otherwise (read-only and
// empty transactions have no commit group).
func (tx *Tx) CommitEpoch() int64 { return tx.commitEpoch }

type telKey struct {
	v     VertexID
	label Label
}

// telWrite tracks one adjacency list this transaction has modified. The
// tentative entry count n and property length propLen extend past the
// committed LS/PS; they are published at apply time. appended/invalidated
// hold entry indices, which survive block upgrades because an upgrade
// copies the full prefix. cur is a view, not a slot of the label index: an
// upgrade swaps the index's Ref through setTELLocked. A list the
// transaction creates is a private view (tel.Private) until CommitCtx
// places it.
type telWrite struct {
	cur         tel.TEL
	n           int
	propLen     int
	appended    []int
	invalidated []int
}

func (w *telWrite) dirty() bool { return len(w.appended) > 0 || len(w.invalidated) > 0 }

type vertexWrite struct {
	data    []byte
	deleted bool
}

// Begin starts a read-write transaction.
//
//lglint:ignore ctxprop public convenience wrapper; ctx-aware callers use BeginCtx
func (g *Graph) Begin() (*Tx, error) { return g.BeginCtx(context.Background()) }

// BeginCtx starts a read-write transaction bound to ctx. The context bounds
// the wait for a free worker slot here and every vertex-lock wait the
// transaction performs later: once ctx is cancelled or its deadline passes,
// the blocked operation aborts the transaction and returns ctx.Err()
// (which is not retryable — see IsRetryable).
func (g *Graph) BeginCtx(ctx context.Context) (*Tx, error) {
	if g.closed.Load() {
		return nil, ErrClosed
	}
	if g.follower.Load() {
		return nil, ErrFollower
	}
	slot, err := g.acquireSlotCtx(ctx)
	if err != nil {
		return nil, err
	}
	tre := g.epochs.ReadEpoch()
	g.readers.Enter(slot, tre)
	tx := &Tx{
		g:    g,
		ctx:  ctx,
		slot: slot,
		tre:  tre,
		tid:  g.tids.Next(),
	}
	// Sampled write transactions carry a trace root; lock waits and the
	// commit wait attach as child stages. Unsampled: both stay nil and
	// every span call below is a no-op.
	tx.ctx, tx.span = g.Tracer().StartSpan(ctx, "tx.write")
	return tx, nil
}

// BeginRead starts a read-only snapshot transaction.
//
//lglint:ignore ctxprop public convenience wrapper; ctx-aware callers use BeginReadCtx
func (g *Graph) BeginRead() (*Tx, error) { return g.BeginReadCtx(context.Background()) }

// BeginReadCtx starts a read-only snapshot transaction, waiting for a free
// worker slot no longer than ctx allows. Read-only transactions never take
// locks, so after Begin the context is not consulted again.
func (g *Graph) BeginReadCtx(ctx context.Context) (*Tx, error) {
	if g.closed.Load() {
		return nil, ErrClosed
	}
	slot, err := g.acquireSlotCtx(ctx)
	if err != nil {
		return nil, err
	}
	tre := g.epochs.ReadEpoch()
	g.readers.Enter(slot, tre)
	return &Tx{g: g, ctx: ctx, slot: slot, tre: tre, ro: true}, nil
}

// ReadEpoch returns the snapshot epoch this transaction reads at.
func (tx *Tx) ReadEpoch() int64 { return tx.tre }

func (tx *Tx) finish() {
	tx.g.readers.Exit(tx.slot)
	tx.g.releaseSlot(tx.slot)
	tx.done = true
	tx.span.End()
}

// lock acquires the write lock for v (idempotent within the transaction).
// On timeout the transaction is aborted and ErrLockTimeout returned; if the
// transaction's context is cancelled first, the transaction is aborted and
// ctx.Err() returned instead.
func (tx *Tx) lock(v VertexID) error {
	stripe := tx.g.locks.StripeOf(uint64(v))
	if _, ok := tx.locked[stripe]; ok {
		return nil
	}
	_, sp := obs.StartSpan(tx.ctx, "tx.lock")
	sp.SetAttr(obs.Int("vertex", int64(v)))
	err := tx.g.locks.TryLockCtx(tx.ctx, uint64(v), tx.g.opts.LockTimeout)
	sp.End()
	if err != nil {
		tx.abortLocked()
		if err == mvcc.ErrLockTimeout {
			return ErrLockTimeout
		}
		return err
	}
	if tx.locked == nil {
		tx.locked = make(map[uint64]struct{})
	}
	tx.locked[stripe] = struct{}{}
	return nil
}

func (tx *Tx) checkWrite() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.ro {
		return ErrReadOnly
	}
	return nil
}

// Vertex operations -----------------------------------------------------------

// AddVertex allocates a new vertex with the given (opaque) property payload
// and returns its ID. The vertex becomes visible to other transactions at
// commit (paper §4: atomic fetch-and-add for the ID, index slots filled,
// lock status set). Once the frontier reaches MaxVertexID — a vertex op
// or edge source at MaxVertexID-1 takes it there — it returns
// ErrOutOfRange, so no ID it hands out is one decodeOps refuses.
func (tx *Tx) AddVertex(data []byte) (VertexID, error) {
	if err := tx.checkWrite(); err != nil {
		return 0, err
	}
	id, err := tx.g.takeVertexID()
	if err != nil {
		return 0, err
	}
	if err := tx.lock(id); err != nil {
		return 0, err
	}
	tx.bufferVertex(id, data, false)
	if tx.g.logged() {
		tx.walBuf = appendVertexOp(tx.walBuf, opAddVertex, id, data)
	}
	return id, nil
}

// PutVertex replaces the vertex's property payload (copy-on-write version).
func (tx *Tx) PutVertex(v VertexID, data []byte) error {
	if err := tx.checkWrite(); err != nil {
		return err
	}
	if uint64(v) >= MaxVertexID {
		return ErrOutOfRange
	}
	if err := tx.lock(v); err != nil {
		return err
	}
	if err := tx.vertexConflict(v); err != nil {
		return err
	}
	tx.bufferVertex(v, data, false)
	if tx.g.logged() {
		tx.walBuf = appendVertexOp(tx.walBuf, opPutVertex, v, data)
	}
	return nil
}

// DeleteVertex tombstones the vertex. Its adjacency lists remain readable
// by older snapshots; IDs are not recycled (paper leaves this to future
// work).
func (tx *Tx) DeleteVertex(v VertexID) error {
	if err := tx.checkWrite(); err != nil {
		return err
	}
	if uint64(v) >= MaxVertexID {
		return ErrOutOfRange
	}
	if err := tx.lock(v); err != nil {
		return err
	}
	if err := tx.vertexConflict(v); err != nil {
		return err
	}
	tx.bufferVertex(v, nil, true)
	if tx.g.logged() {
		tx.walBuf = appendVertexOp(tx.walBuf, opDelVertex, v, nil)
	}
	return nil
}

// vertexConflict implements first-committer-wins for vertex writes: if a
// version newer than our snapshot exists, abort.
func (tx *Tx) vertexConflict(v VertexID) error {
	if ver := tx.g.vindex.Get(int64(v)); ver != nil && ver.ts > tx.tre {
		tx.abortLocked()
		return ErrConflict
	}
	return nil
}

func (tx *Tx) bufferVertex(v VertexID, data []byte, deleted bool) {
	if tx.vWrites == nil {
		tx.vWrites = make(map[VertexID]*vertexWrite)
	}
	cp := append([]byte(nil), data...)
	tx.vWrites[v] = &vertexWrite{data: cp, deleted: deleted}
}

// GetVertex returns the vertex payload visible in this transaction's
// snapshot (including its own buffered write).
func (tx *Tx) GetVertex(v VertexID) ([]byte, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if w, ok := tx.vWrites[v]; ok {
		if w.deleted {
			return nil, ErrNotFound
		}
		return w.data, nil
	}
	ver := tx.g.latestVertex(v, tx.tre)
	if ver == nil || ver.deleted {
		return nil, ErrNotFound
	}
	return ver.data, nil
}

// Edge operations -------------------------------------------------------------

// ensureTEL locks src and returns the transaction's write handle for the
// (src, label) adjacency list. If src has no such list, the handle holds a
// private one: the transaction builds it in Go-heap words, and CommitCtx
// places it in the arena and the label index (place).
func (tx *Tx) ensureTEL(src VertexID, label Label) (*telWrite, error) {
	if err := tx.lock(src); err != nil {
		return nil, err
	}
	key := telKey{src, label}
	if w, ok := tx.telWrites[key]; ok {
		return w, nil
	}
	g := tx.g
	var w *telWrite
	if t, ok := g.telFor(src, label); ok {
		g.touch(t)
		w = &telWrite{cur: t, n: t.Len(), propLen: t.PropLen()}
	} else {
		w = &telWrite{cur: tel.Private(int64(src), int64(label))}
		tx.created = append(tx.created, w)
	}
	if tx.telWrites == nil {
		tx.telWrites = make(map[telKey]*telWrite)
	}
	tx.telWrites[key] = w
	return w, nil
}

// upgrade relocates w's TEL to a larger block that also fits one more
// entry with extraProps of properties (tel.TEL.Upgrade). The index Ref
// swap is safe immediately; the old block is recycled once no ongoing
// reader can still hold it. A private list just grows in place of its
// old words.
func (tx *Tx) upgrade(w *telWrite, extraProps int) {
	old := w.cur
	if old.Ref() == 0 {
		w.cur = old.Grow(w.n, w.propLen, extraProps)
		return
	}
	g := tx.g
	r := old.Upgrade(g.alloc, w.n, w.propLen, extraProps)
	g.setTELLocked(VertexID(old.Src()), Label(old.Label()), r)
	w.cur = tel.At(g.alloc, r)
	g.alloc.DeferFree(old.Ref(), g.epochs.WriteEpoch())
	if g.opts.PageCache != nil {
		g.forgetBlock(old)
		g.touch(w.cur)
	}
	g.stats.Upgrades.Add(1)
}

// place moves every list the transaction created and wrote into the arena,
// in creation order, each into the tightest block class that holds it
// (tel.TEL.Place), and adds it to its vertex's label index with nothing
// committed — the state of any list before its writers' apply. The
// transaction still holds every source's lock. A created list it never
// wrote (a DeleteEdge that found nothing) is dropped.
//
// If the label has a reverse index, every edge of a placed list is hinted
// again, after the list is in the label index: a build skips a source with
// no list without taking its lock, which is sound only for lists that
// reach the label index before their hints load the generation
// (revindex.go). The work-phase hints keep the transaction's own in-scans
// whole.
func (tx *Tx) place() {
	g := tx.g
	for _, w := range tx.created {
		if w.n == 0 {
			continue
		}
		src, label := VertexID(w.cur.Src()), Label(w.cur.Label())
		r := w.cur.Place(g.alloc, w.n, w.propLen)
		g.addTELLocked(src, label, r)
		w.cur = tel.At(g.alloc, r)
		if g.rev.Get(int64(label)) != nil {
			for i := 0; i < w.n; i++ {
				g.revAdd(VertexID(w.cur.Dst(i)), label, src)
			}
		}
	}
}

// invalidatePrev finds the latest visible version of (src→dst) within w and
// marks it invalidated by this transaction. Returns ErrNotFound if no
// visible version exists, ErrConflict (aborting) if another transaction
// committed to this TEL after our snapshot.
func (tx *Tx) invalidatePrev(w *telWrite, dst VertexID) error {
	t := &w.cur
	// First-committer-wins, checked against the TEL's commit timestamp
	// before any scan (paper §5: "write operations can simply compare
	// their timestamp against CT instead of paying the cost of scanning").
	// This also catches the case where a concurrent transaction *inserted*
	// the edge after our snapshot: the version is invisible to us, so a
	// scan alone would wrongly conclude the edge is new and duplicate it.
	if t.CommitTS() > tx.tre {
		tx.abortLocked()
		return ErrConflict
	}
	if !t.MayContain(int64(dst)) {
		tx.g.stats.BloomSkips.Add(1)
		return ErrNotFound
	}
	tx.g.stats.BloomScans.Add(1)
	i := t.FindLatest(int64(dst), w.n, tx.tre, tx.tid)
	if i < 0 {
		return ErrNotFound
	}
	if t.Creation(i) == -tx.tid {
		// Deleting our own pending insert: mark it self-invalidated.
		t.SetInvalidation(i, -tx.tid)
	} else if !t.CASInvalidation(i, mvcc.NullTS, -tx.tid) {
		tx.abortLocked()
		return ErrConflict
	}
	w.invalidated = append(w.invalidated, i)
	return nil
}

func (tx *Tx) appendEdge(w *telWrite, dst VertexID, props []byte) {
	if !w.cur.Fits(w.n, w.propLen, len(props)) {
		tx.upgrade(w, len(props))
	}
	w.propLen = w.cur.Append(w.n, int64(dst), -tx.tid, props, w.propLen)
	w.appended = append(w.appended, w.n)
	w.n++
}

// InsertEdge appends a new edge without checking for a previous version —
// the paper's "true insertion" fast path (amortised constant time). Use
// when the caller knows the edge is new (e.g. a new "like" or purchase).
func (tx *Tx) InsertEdge(src VertexID, label Label, dst VertexID, props []byte) error {
	if err := tx.checkWrite(); err != nil {
		return err
	}
	if uint64(src) >= MaxVertexID || dst < 0 || uint64(label) >= MaxLabel {
		return ErrOutOfRange
	}
	w, err := tx.ensureTEL(src, label)
	if err != nil {
		return err
	}
	tx.appendEdge(w, dst, props)
	// Hint the reverse index, if the label has one, while src is locked:
	// that is what lets a build racing this write account for the edge
	// (see revindex.go). An abort just leaves a harmless stale hint.
	tx.g.revAdd(dst, label, src)
	if tx.g.logged() {
		tx.walBuf = appendEdgeOp(tx.walBuf, opInsertEdge, src, label, dst, props)
	}
	return nil
}

// AddEdge upserts an edge: if a visible version of (src,label,dst) exists
// it is invalidated first (this is LinkBench's upsert semantics; the Bloom
// filter lets true insertions skip the scan).
func (tx *Tx) AddEdge(src VertexID, label Label, dst VertexID, props []byte) error {
	if err := tx.checkWrite(); err != nil {
		return err
	}
	if uint64(src) >= MaxVertexID || dst < 0 || uint64(label) >= MaxLabel {
		return ErrOutOfRange
	}
	w, err := tx.ensureTEL(src, label)
	if err != nil {
		return err
	}
	if err := tx.invalidatePrev(w, dst); err != nil && err != ErrNotFound {
		return err
	}
	tx.appendEdge(w, dst, props)
	tx.g.revAdd(dst, label, src)
	if tx.g.logged() {
		tx.walBuf = appendEdgeOp(tx.walBuf, opUpsertEdge, src, label, dst, props)
	}
	return nil
}

// DeleteEdge removes the visible version of (src,label,dst). Returns
// ErrNotFound (without aborting) if the edge does not exist.
func (tx *Tx) DeleteEdge(src VertexID, label Label, dst VertexID) error {
	if err := tx.checkWrite(); err != nil {
		return err
	}
	if uint64(src) >= MaxVertexID || dst < 0 || uint64(label) >= MaxLabel {
		return ErrOutOfRange
	}
	w, err := tx.ensureTEL(src, label)
	if err != nil {
		return err
	}
	if err := tx.invalidatePrev(w, dst); err != nil {
		return err
	}
	if tx.g.logged() {
		tx.walBuf = appendEdgeOp(tx.walBuf, opDeleteEdge, src, label, dst, nil)
	}
	return nil
}

// GetEdge returns the properties of the visible version of (src,label,dst).
// The returned slice aliases block memory; copy it to retain it past the
// transaction.
func (tx *Tx) GetEdge(src VertexID, label Label, dst VertexID) ([]byte, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	t, n, tid, ok := tx.readView(src, label)
	if !ok {
		return nil, ErrNotFound
	}
	return lookupEdge(t, n, dst, tx.tre, tid)
}

// readView resolves the TEL, entry bound and transaction ID this
// transaction should scan with: its own tentative view and its tid for
// lists it has written, the committed view and tid 0 otherwise. Every write
// a transaction makes to a list goes through its telWrites entry, so a list
// it has not written holds no entry stamped with its tid, and tid 0 gives
// the same visibility — and lets the scan take the settled path
// (tel.TEL.Settled). ok is false if src has no list of that label.
func (tx *Tx) readView(src VertexID, label Label) (t tel.TEL, n int, tid int64, ok bool) {
	if w, ok := tx.telWrites[telKey{src, label}]; ok {
		return w.cur, w.n, tx.tid, true
	}
	t, ok = tx.g.telFor(src, label)
	if !ok {
		return t, 0, 0, false
	}
	tx.g.touch(t)
	return t, t.Len(), 0, true
}

// EdgeIter is a purely sequential adjacency list scan bound to a
// transaction's snapshot, yielding edges newest-first.
type EdgeIter struct {
	it       tel.Iter
	i        int
	done     bool
	g        *Graph // for OOC page charging; nil when not simulating
	lastPage int64
}

// Neighbors returns an iterator over the (src,label) adjacency list.
func (tx *Tx) Neighbors(src VertexID, label Label) *EdgeIter {
	if tx.done {
		return &EdgeIter{done: true}
	}
	t, n, tid, ok := tx.readView(src, label)
	if !ok {
		return &EdgeIter{done: true}
	}
	return newEdgeIter(tx.g, t, n, tx.tre, tid)
}

// neighborsInto rebinds a caller-owned iterator to (src,label) without
// allocating (Reader). Like every Tx method it must only be called
// from the transaction's own goroutine.
func (tx *Tx) neighborsInto(it *EdgeIter, src VertexID, label Label) {
	if tx.done {
		*it = EdgeIter{done: true}
		return
	}
	t, n, tid, ok := tx.readView(src, label)
	if !ok {
		*it = EdgeIter{done: true}
		return
	}
	resetEdgeIter(it, tx.g, t, n, tx.tre, tid)
}

func (tx *Tx) graph() *Graph { return tx.g }

// Next advances the iterator. It returns false when the scan is complete.
func (e *EdgeIter) Next() bool {
	if e.done {
		return false
	}
	e.i = e.it.Next()
	if e.i < 0 {
		e.done = true
		return false
	}
	if e.g != nil {
		if p := e.it.TEL().EntryPage(e.i); p != e.lastPage {
			e.lastPage = p
			e.g.touchPage(p)
		}
	}
	return true
}

// nextWhere advances to the next visible edge whose destination satisfies
// keep — the predicate-pushdown scan path. On the in-memory fast path the
// predicate runs *inside* the TEL scan loop (tel.Iter.NextWhere), so
// rejected destinations never pay the MVCC visibility check; under the
// out-of-core simulation it degrades to Next()+check, preserving the
// per-entry page-fault accounting.
func (e *EdgeIter) nextWhere(keep func(dst int64) bool) bool {
	if e.done {
		return false
	}
	if e.g == nil {
		e.i = e.it.NextWhere(keep)
		if e.i < 0 {
			e.done = true
			return false
		}
		return true
	}
	for e.Next() {
		if keep(e.it.TEL().Dst(e.i)) {
			return true
		}
	}
	return false
}

// Dst returns the current edge's destination vertex.
func (e *EdgeIter) Dst() VertexID { return VertexID(e.it.TEL().Dst(e.i)) }

// Props returns the current edge's properties (aliasing block memory).
func (e *EdgeIter) Props() []byte { return e.it.TEL().Props(e.i) }

// Degree counts visible edges in the (src,label) adjacency list.
func (tx *Tx) Degree(src VertexID, label Label) int {
	if tx.done {
		return 0
	}
	t, n, tid, ok := tx.readView(src, label)
	if !ok {
		return 0
	}
	return degree(tx.g, t, n, tx.tre, tid)
}

// Commit / Abort --------------------------------------------------------------

// Commit is CommitCtx without a deadline.
//
//lglint:ignore ctxprop public convenience wrapper; ctx-aware callers use CommitCtx
func (tx *Tx) Commit() error { return tx.CommitCtx(context.Background()) }

// CommitCtx finishes the transaction. Read-only transactions and write
// transactions with an empty write set release their snapshot immediately;
// writers go through the group committer (persist + apply phases), on the
// caller's goroutine whenever it wins leadership. ctx bounds the wait, and
// three outcomes are possible:
//
//   - The group commits (or the engine aborts it) before ctx is done: the
//     committer's verdict is returned.
//   - ctx is done while the transaction is still queued, before any leader
//     claimed it: the transaction is withdrawn from the queue and aborted —
//     it definitively did not commit — and ctx.Err() is returned bare.
//   - ctx is done after a leader claimed the group (e.g. mid-fsync on a
//     slow device): CommitCtx returns immediately with ctx.Err() wrapped in
//     ErrCommitOutcomeUnknown — the group may still become durable and
//     visible. Callers with non-idempotent side effects must check
//     errors.Is(err, ErrCommitOutcomeUnknown) before re-submitting.
//
// In every case the transaction is finished when CommitCtx returns (an
// in-flight group is finalised in the background) and must not be used
// again.
func (tx *Tx) CommitCtx(ctx context.Context) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.ro || (len(tx.telWrites) == 0 && len(tx.vWrites) == 0) {
		// Releasing a snapshot involves no persistence; it always succeeds.
		tx.unlockAll()
		tx.finish()
		return nil
	}
	if err := ctx.Err(); err != nil {
		tx.abortLocked()
		tx.g.stats.Aborts.Add(1)
		return err
	}
	tx.place()
	tx.commitRes = make(chan error, 1)
	tx.commitStart = time.Now()
	_, sp := obs.StartSpan(tx.ctx, "tx.commit.wait")
	c := tx.g.commit
	// Enqueued before the wait, so a withdraw that fails below means a
	// leader has claimed the transaction.
	c.enqueue(tx)
	var err error
	cancelled := false
	select {
	case err = <-tx.commitRes:
	case c.lead <- struct{}{}:
		// Leader: tx was queued before the token was won, so this drain or
		// an earlier one commits it.
		if c.leadGroup(ctx) {
			err = <-tx.commitRes
		} else {
			cancelled = true
		}
	case <-ctx.Done():
		cancelled = true
	}
	sp.End()
	if !cancelled {
		return tx.settleCommit(err)
	}
	if c.withdraw(tx) {
		// No leader had claimed the transaction: abort it locally.
		tx.abortLocked()
		tx.g.stats.Aborts.Add(1)
		return ctx.Err()
	}
	// Withdrawal failed: a leader claimed the group, and the commit will
	// run to a verdict out of our hands. The verdict may have landed in the
	// same instant the deadline fired (select picks randomly among ready
	// cases): prefer the definitive answer over an in-doubt one. Otherwise
	// detach: finalise bookkeeping in the background and report the
	// indeterminate outcome to the caller now.
	select {
	case err = <-tx.commitRes:
		return tx.settleCommit(err)
	default:
	}
	go func() {
		tx.settleCommit(<-tx.commitRes)
	}()
	return fmt.Errorf("%w: %w", ErrCommitOutcomeUnknown, ctx.Err())
}

// settleCommit finishes the transaction with the committer's verdict and
// maintains the commit/abort counters and commit-latency histogram.
func (tx *Tx) settleCommit(err error) error {
	tx.finish()
	if err != nil {
		tx.g.stats.Aborts.Add(1)
		return err
	}
	d := time.Since(tx.commitStart)
	tx.g.ob.commitLatency.Record(d)
	tx.g.ob.tracer.SlowOp("tx.commit", d, obs.Int("epoch", tx.commitEpoch))
	tx.g.noteWriteCommitted(tx.g.stats.Commits.Add(1))
	return nil
}

// Abort rolls the transaction back: invalidation timestamps it set are
// reverted to NULL, locks released, and its appended entries are left
// beyond the committed LS where the next writer will overwrite them (paper
// §5, aborts).
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.abortLocked()
	tx.g.stats.Aborts.Add(1)
}

// abortLocked reverts and finishes; used both by Abort and by internal
// error paths that must abort while still holding locks.
func (tx *Tx) abortLocked() {
	tx.revert()
	tx.unlockAll()
	tx.finish()
}

func (tx *Tx) revert() {
	for _, w := range tx.telWrites {
		for _, i := range w.invalidated {
			w.cur.CASInvalidation(i, -tx.tid, mvcc.NullTS)
		}
	}
}

func (tx *Tx) unlockAll() {
	for s := range tx.locked {
		tx.g.locks.UnlockStripe(s)
	}
	tx.locked = nil
}
