// Package mvcc provides the concurrency-control primitives LiveGraph's
// transaction protocol is built from (paper §5): the global read/write epoch
// counters GRE and GWE, transaction identifiers whose negation marks private
// writes, the timestamp visibility rules used during sequential TEL scans,
// the reading-epoch table that compaction consults, and the per-vertex lock
// table with timeout-based deadlock avoidance.
package mvcc

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// NullTS is the invalidation-timestamp value meaning "never invalidated".
// It is negative, so the paper's visibility test "(TRE < InvalidationTS) OR
// (InvalidationTS < 0)" treats NULL and uncommitted (-TID) invalidations
// uniformly: both leave the entry visible to other transactions.
const NullTS int64 = -(1 << 62)

// Epochs holds the two shared counters: GRE (what read transactions may
// see) and GWE (the epoch being written). GWE >= GRE always holds; the
// transaction manager advances GWE when it forms a commit group and GRE
// after the whole group has applied.
type Epochs struct {
	gre atomic.Int64
	gwe atomic.Int64
}

// Init sets both counters (used when recovering a graph to the epoch of its
// last durable state). Must be called before any transaction starts.
func (e *Epochs) Init(ts int64) {
	e.gre.Store(ts)
	e.gwe.Store(ts)
}

// ReadEpoch returns the current global read epoch GRE.
func (e *Epochs) ReadEpoch() int64 { return e.gre.Load() }

// WriteEpoch returns the current global write epoch GWE.
func (e *Epochs) WriteEpoch() int64 { return e.gwe.Load() }

// AdvanceWrite increments GWE and returns the new value — the commit
// timestamp (TWE) of the group being persisted.
func (e *Epochs) AdvanceWrite() int64 { return e.gwe.Add(1) }

// PublishRead sets GRE to ts, exposing the group's updates to transactions
// that start afterwards. ts must be monotonically non-decreasing.
func (e *Epochs) PublishRead(ts int64) {
	for {
		cur := e.gre.Load()
		if ts <= cur {
			return
		}
		if e.gre.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// AdvanceTo moves both counters forward to ts (monotonically; a smaller
// ts is a no-op). This is the replication-apply sequence point: a replica
// does not form commit groups of its own — its epoch sequence is dictated
// by the primary's log — so after a commit group is fully applied, GWE
// and GRE jump together to the group's epoch. GWE is raised first so the
// invariant GWE >= GRE holds at every instant.
func (e *Epochs) AdvanceTo(ts int64) {
	for {
		cur := e.gwe.Load()
		if ts <= cur || e.gwe.CompareAndSwap(cur, ts) {
			break
		}
	}
	e.PublishRead(ts)
}

// WaitRead is the PublishRead barrier: it blocks until GRE >= ts, i.e.
// until the commit group stamped ts (and every earlier group) has fully
// applied and been published. Epoch advancement is a single global
// sequence point — once WaitRead(ts) returns, a new transaction's snapshot
// includes every update of every group up to ts.
func (e *Epochs) WaitRead(ts int64) {
	for spins := 0; e.gre.Load() < ts; spins++ {
		if spins < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// Visible reports whether an edge log entry with the given creation and
// invalidation timestamps is visible to a transaction reading at epoch tre
// with identifier tid (pass 0 for pure read transactions).
//
// The rules are the paper's §5 scan conditions:
//
//	(0 <= CreationTS <= TRE) AND ((TRE < InvalidationTS) OR (InvalidationTS < 0))
//	OR (CreationTS == -TID AND InvalidationTS != -TID)
//
// with one refinement: an entry the transaction itself invalidated
// (InvalidationTS == -TID) is never visible to it, so a transaction observes
// its own deletes.
func Visible(creation, invalidation, tre, tid int64) bool {
	if tid != 0 && creation == -tid {
		return invalidation != -tid
	}
	if creation < 0 || creation > tre {
		return false
	}
	if tid != 0 && invalidation == -tid {
		return false
	}
	return invalidation < 0 || invalidation > tre
}

// TIDs hands out unique positive transaction identifiers. The paper builds
// the TID from (thread id, thread-local counter); a single shared atomic is
// equivalent and simpler in Go, where workers are goroutines.
type TIDs struct{ next atomic.Int64 }

// Next returns a fresh TID (always >= 1).
func (t *TIDs) Next() int64 { return t.next.Add(1) }

// ReaderTable is the paper's reading-epoch table: one slot per worker
// recording the TRE of its in-flight transaction, or Idle when none.
// Compaction reads all slots to compute the minimum epoch any ongoing
// transaction can still see.
type ReaderTable struct {
	slots []paddedInt64
}

// Idle marks a slot with no active transaction.
const Idle int64 = -1

type paddedInt64 struct {
	v atomic.Int64
	_ [7]int64 // avoid false sharing between worker slots
}

// NewReaderTable creates a table with n worker slots.
func NewReaderTable(n int) *ReaderTable {
	rt := &ReaderTable{slots: make([]paddedInt64, n)}
	for i := range rt.slots {
		rt.slots[i].v.Store(Idle)
	}
	return rt
}

// Len returns the number of slots.
func (rt *ReaderTable) Len() int { return len(rt.slots) }

// Enter records that worker slot is reading at epoch tre.
func (rt *ReaderTable) Enter(slot int, tre int64) { rt.slots[slot].v.Store(tre) }

// Exit clears worker slot.
func (rt *ReaderTable) Exit(slot int) { rt.slots[slot].v.Store(Idle) }

// MinActive returns the minimum epoch visible to any ongoing transaction,
// lower-bounded by fallback (normally the current GRE): future transactions
// will get a TRE >= GRE, so versions invisible below min(active, GRE+1) are
// dead.
func (rt *ReaderTable) MinActive(fallback int64) int64 {
	min := fallback
	for i := range rt.slots {
		if v := rt.slots[i].v.Load(); v != Idle && v < min {
			min = v
		}
	}
	return min
}

// LockTable implements the per-vertex write locks. The paper uses a huge
// futex array indexed by vertex ID; Go's sync.Mutex parks waiters in the
// runtime just like a futex, so a striped mutex array gives the same
// behaviour with bounded memory. Locks are acquired with a deadline —
// timing out is the paper's deadlock-avoidance mechanism (the transaction
// rolls back and restarts).
type LockTable struct {
	stripes []lockStripe
	mask    uint64
}

type lockStripe struct {
	mu sync.Mutex
	_  [6]int64
}

// NewLockTable creates a lock table with at least n stripes (rounded up to a
// power of two).
func NewLockTable(n int) *LockTable {
	sz := 1
	for sz < n {
		sz <<= 1
	}
	return &LockTable{stripes: make([]lockStripe, sz), mask: uint64(sz - 1)}
}

// StripeOf returns the stripe index guarding vertex v. Two vertices with
// the same stripe share a lock, so lock holders must deduplicate by stripe
// (not by vertex) to avoid self-deadlock.
func (lt *LockTable) StripeOf(v uint64) uint64 {
	// splitmix finalizer so adjacent vertex IDs spread across stripes.
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	return (v ^ (v >> 27)) & lt.mask
}

func (lt *LockTable) stripe(v uint64) *lockStripe {
	return &lt.stripes[lt.StripeOf(v)]
}

// ErrLockTimeout is returned by TryLockCtx when the lock could not be
// acquired before the timeout elapsed.
var ErrLockTimeout = errors.New("mvcc: lock wait timed out")

// TryLock attempts to lock vertex v, spinning and yielding until the
// deadline. It returns false on timeout (caller must abort and may retry
// the whole transaction). Unlike TryLockCtx it is bounded by the timeout
// alone — there is no context to mint, so none is.
func (lt *LockTable) TryLock(v uint64, timeout time.Duration) bool {
	return lt.tryLock(nil, nil, v, timeout) == nil
}

// TryLockCtx is TryLock with cancellation: it returns nil once the lock is
// held, ctx.Err() if the context is done first, or ErrLockTimeout after
// timeout. The spin loop's backoff is capped well below typical deadlines,
// so cancellation is observed promptly even under contention.
func (lt *LockTable) TryLockCtx(ctx context.Context, v uint64, timeout time.Duration) error {
	return lt.tryLock(ctx.Done(), ctx.Err, v, timeout)
}

// tryLock is the shared spin loop. done and ctxErr are the cancellation
// signal and its error source (both nil for the uncancellable TryLock).
func (lt *LockTable) tryLock(done <-chan struct{}, ctxErr func() error, v uint64, timeout time.Duration) error {
	s := lt.stripe(v)
	if s.mu.TryLock() {
		return nil
	}
	deadline := time.Now().Add(timeout)
	backoff := time.Microsecond
	for {
		if s.mu.TryLock() {
			return nil
		}
		select {
		case <-done:
			return ctxErr()
		default:
		}
		if time.Now().After(deadline) {
			return ErrLockTimeout
		}
		runtime.Gosched()
		time.Sleep(backoff)
		if backoff < 64*time.Microsecond {
			backoff *= 2
		}
	}
}

// Lock blocks until the lock for vertex v is held. Used by internal tasks
// (compaction) that cannot deadlock because they lock one vertex at a time.
func (lt *LockTable) Lock(v uint64) { lt.stripe(v).mu.Lock() }

// Unlock releases the lock for vertex v.
func (lt *LockTable) Unlock(v uint64) { lt.stripe(v).mu.Unlock() }

// UnlockStripe releases a lock by its stripe index (from StripeOf).
func (lt *LockTable) UnlockStripe(s uint64) { lt.stripes[s].mu.Unlock() }
