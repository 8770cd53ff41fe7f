// Package livegraph is a transactional graph storage system with purely
// sequential adjacency list scans — a from-scratch Go implementation of
// "LiveGraph: A Transactional Graph Storage System with Purely Sequential
// Adjacency List Scans" (Zhu et al., VLDB 2020).
//
// LiveGraph stores each vertex's adjacency list (one per edge label) in a
// Transactional Edge Log (TEL): a contiguous, multi-versioned log of edge
// insertions, updates and deletions. Every edge log entry embeds a creation
// and an invalidation timestamp, so a scan decides visibility from data it
// is already streaming over — scans never chase pointers or consult side
// structures, even while concurrent transactions are committing. Snapshot
// isolation comes from an epoch-based MVCC protocol with group commit.
//
// # Quick start
//
//	g, err := livegraph.Open(livegraph.Options{})   // in-memory
//	defer g.Close()
//
//	var alice, bob livegraph.VertexID
//	livegraph.Update(g, 3, func(tx *livegraph.Tx) error {
//	    alice, _ = tx.AddVertex([]byte("alice"))
//	    bob, _ = tx.AddVertex([]byte("bob"))
//	    return tx.InsertEdge(alice, livegraph.Label(0), bob, []byte("2020-08-29"))
//	})
//
//	livegraph.View(g, func(tx *livegraph.Tx) error {
//	    it := tx.Neighbors(alice, 0)      // purely sequential scan
//	    for it.Next() {
//	        fmt.Println(it.Dst(), string(it.Props()))
//	    }
//	    return nil
//	})
//
// Set Options.Dir for durability (write-ahead log + checkpoints); pass an
// iosim device profile to model Optane/NAND persistence hardware, and a
// page cache to simulate out-of-core execution.
//
// # API v2: readers, contexts, traversals
//
// Every way of reading the graph implements one interface. A transaction
// (*Tx) and a pinned analytics snapshot (*Snapshot) both satisfy Reader —
// GetVertex, GetEdge, Neighbors, Degree, ReadEpoch — so point lookups,
// adjacency scans, multi-hop traversals and whole-graph kernels are written
// once and run against either. Helpers that only read should accept a
// Reader, not a concrete type.
//
// Operations take contexts. Graph.BeginCtx / BeginReadCtx bound the wait
// for a worker slot; a write transaction's vertex-lock waits respect its
// context's deadline (returning ctx.Err() instead of blocking up to
// Options.LockTimeout); Tx.CommitCtx bounds the group-commit wait, turning
// a deadline into a definitive abort while the transaction is still queued
// (see CommitCtx for the in-flight case). UpdateCtx and ViewCtx are the
// context-aware forms of Update and View; the HTTP server (internal/server)
// threads each request's context through begin, lock and commit waits.
//
// Multi-hop reads compose with the traversal builder, which compiles to
// nested purely sequential TEL scans and keeps no intermediate state beyond
// the current frontier:
//
//	// friends-of-friends recommendations, two sequential hops
//	recs, err := livegraph.Traverse(alice).
//	    Out(lFriend).Out(lFriend).
//	    Filter(func(r livegraph.Reader, v livegraph.VertexID) bool { return v != alice }).
//	    Dedup().Limit(10).
//	    Run(ctx, tx)                       // tx, a snapshot — any Reader
//
//	// the same walk over last week's graph (temporal time travel)
//	old, err := livegraph.Traverse(alice).
//	    Out(lFriend).Out(lFriend).AsOf(epoch).
//	    RunGraph(ctx, g)                   // pins a snapshot at the epoch
//
// AsOf requires the epoch to be within Options.HistoryRetention; older
// epochs return ErrHistoryGone. The server exposes the same builder as
// GET /v1/traverse (including the parallel knob, as ?parallel=N).
//
// # The morsel-driven parallel execution engine
//
// Every hop runs on one expansion kernel. A wide hop gets a worker pool:
// the frontier is partitioned into fixed-size morsels that workers claim
// from an atomic cursor (internal/morsel's Run — the one place in the tree
// that starts morsel workers), each worker expanding into a private buffer
// through its own reused edge iterator, with a lock-striped sparse bitset
// arbitrating Dedup and one budget enforcing Limit and MaxFrontier, so
// early termination — or a cancelled context — stops every worker within
// about a thousand scanned entries. Each worker's scans remain purely
// sequential TEL streams — parallelism comes from expanding disjoint
// frontier morsels concurrently.
//
// A sequential hop is that kernel with one worker, not a second engine: the
// per-item body runs once on the caller's goroutine and appends straight
// into the next frontier; hops are barriers, so a lone worker is the only
// user of the dedup set while it runs and probes it without the stripe
// locks (sparsebit.Set.TestAndSetOwned), and it counts its budget in a
// plain integer. The set is made with a single stripe by the first hop
// that dedups and is traded for one striped for the pool by the first hop
// that runs on one; a one-worker hop after that uses the striped set,
// still lock-free.
//
// The pool width comes from Traversal.Parallel, falling back to
// Options.TraversalParallelism, falling back to GOMAXPROCS. A pool engages
// only on Readers that are safe for concurrent use (ParallelReader — a
// *Snapshot; a *Tx always runs on one worker) and only when the frontier
// is wide enough to repay dispatch; narrow frontiers and in-memory graphs
// on few cores are often fastest on one worker, which is why the engine
// decides per hop rather than forcing a pool. Under the out-of-core
// simulation workers overlap page-fault latency, so parallel traversals
// win there even on a single core. The thresholds are constants of
// internal/core, not options; Parallel(1) and Direction(DirectionTopDown)
// pin a strategy per query. A deduplicating hop over a frontier dense
// against its label may instead run bottom-up, probing each candidate
// destination's in-edge hints against the frontier; the reverse hint index
// behind that — and behind Snapshot.ScanIn — is not maintained by writes
// but built by the first in-scan of a label, in one pass, and folded by a
// later one when enough writes have landed beside it (see README,
// "Adaptive traversal execution"). The analytics kernels (internal/analytics:
// PageRank, ConnComp, BFS, Degrees) and compaction slices dispatch through
// the same morsel.Run.
//
// # Architecture: the commit pipeline
//
// Commits go through the paper's three phases — work, persist, apply —
// with a group-commit transaction manager: a committing transaction
// enqueues itself, and the leader that wins the commit lock drains the
// queue and commits the whole group.
//
// The persist phase is one write-ahead log with group commit (paper §5).
// Every transaction buffers one WAL record as it executes; at commit the
// leader hands the group's records to the log (internal/wal), which
// writes them as a single checksummed frame and fsyncs once. A group is
// exactly one frame, so the frame's checksum is the group's atomicity:
// recovery reads frames until the first one that does not verify, and a
// crash that tears a group never resurrects half of it.
//
// The global read epoch advances only after the whole group is durable
// and fully applied, which is what preserves snapshot isolation.
// Checkpoints rotate the log to a fresh segment file at a quiescent point
// and prune the segments the snapshot supersedes.
//
// # Replication: read replicas with bounded staleness
//
// A durable graph's WAL is also its replication stream. The primary-side
// shipper (internal/repl, served by lgserver as GET /v1/repl/stream)
// tails the log and ships complete commit groups, epoch-framed
// and resumable; a follower applies each group atomically with
// Graph.ApplyEpoch, advancing its read epoch only at group boundaries —
// so every snapshot on a replica is a transactionally consistent prefix
// of the primary's history. Followers reject local writes (ErrFollower),
// serve every read surface (point reads, traversals, analytics) at their
// applied epoch, and report lag in epochs and bytes via /v1/stats. The
// HTTP client routes reads across replicas under a staleness bound, with
// read-your-writes by default and failover to the primary.
//
// Write transactions that return ErrConflict or ErrLockTimeout have been
// aborted under first-committer-wins; retry them (see IsRetryable).
// Context cancellation and deadline errors also abort the transaction but
// are not retryable.
//
// For whole-graph analytics, Graph.Snapshot pins a consistent view that is
// safe for concurrent use by parallel workers (see internal/analytics for
// PageRank and Connected Components kernels built on it).
package livegraph

import (
	"context"

	"livegraph/internal/core"
)

// VertexID identifies a vertex; IDs are dense, starting at 0.
type VertexID = core.VertexID

// Label identifies an edge label; edges of one vertex are grouped into one
// adjacency list per label.
type Label = core.Label

// Options configures a Graph; the zero value is a volatile in-memory graph.
type Options = core.Options

// Graph is a LiveGraph instance.
type Graph = core.Graph

// Tx is a transaction (see Graph.Begin and Graph.BeginRead).
type Tx = core.Tx

// EdgeIter is a purely sequential adjacency list iterator.
type EdgeIter = core.EdgeIter

// Snapshot is a pinned consistent read-only view for analytics.
type Snapshot = core.Snapshot

// Reader is the unified read surface implemented by both *Tx and
// *Snapshot: GetVertex, GetEdge, Neighbors, Degree and ReadEpoch over one
// consistent epoch. Code that only reads the graph should accept a Reader.
type Reader = core.Reader

// ParallelReader marks a Reader that is safe for concurrent use by
// multiple goroutines; the traversal engine only fans hops out over
// ParallelReaders (*Snapshot qualifies, *Tx does not).
type ParallelReader = core.ParallelReader

// Traversal is a composable multi-hop traversal specification; build one
// with Traverse and execute it against any Reader or a Graph.
type Traversal = core.Traversal

// GraphStats aggregates engine counters.
type GraphStats = core.GraphStats

// Errors returned by transactions. Conflict and lock-timeout errors mean
// the transaction was aborted and should be retried.
var (
	ErrConflict    = core.ErrConflict
	ErrLockTimeout = core.ErrLockTimeout
	ErrTxDone      = core.ErrTxDone
	ErrReadOnly    = core.ErrReadOnly
	ErrNotFound    = core.ErrNotFound
	ErrClosed      = core.ErrClosed
	// ErrHistoryGone is returned by Graph.SnapshotAt and Traversal.AsOf
	// for epochs older than Options.HistoryRetention.
	ErrHistoryGone = core.ErrHistoryGone
	// ErrFollower is returned by Begin on a read replica (a graph fed by
	// Graph.ApplyEpoch / the replication stream): writes must go to the
	// primary. Reads are unaffected.
	ErrFollower = core.ErrFollower
	// ErrAsOfMismatch is returned by Traversal.Run when the traversal's
	// AsOf epoch differs from the supplied Reader's epoch.
	ErrAsOfMismatch = core.ErrAsOfMismatch
	// ErrFrontierTooLarge is returned by a traversal whose intermediate
	// frontier outgrew the Traversal.MaxFrontier bound.
	ErrFrontierTooLarge = core.ErrFrontierTooLarge
	// ErrCommitOutcomeUnknown wraps the context error Tx.CommitCtx returns
	// when the deadline fired after a leader claimed the commit group: the
	// transaction may still commit. A context error without this wrapper
	// means the transaction definitively did not commit.
	ErrCommitOutcomeUnknown = core.ErrCommitOutcomeUnknown
	// ErrCheckpointDamaged wraps what Open returns when a checkpoint file
	// in Options.Dir breaks a rule its writer guarantees (it ends early, a
	// length or count does not fit the file, record IDs are out of order).
	ErrCheckpointDamaged = core.ErrCheckpointDamaged
)

// Open creates (or, when Options.Dir is set, recovers) a graph.
func Open(opts Options) (*Graph, error) { return core.Open(opts) }

// Traverse starts a composable traversal from the given source vertices:
// chain Out, Filter, Dedup, Limit and AsOf, then Run it on any Reader (or
// RunGraph to pin a snapshot). The traversal executes as nested purely
// sequential TEL scans, materialising nothing beyond the current frontier.
func Traverse(src ...VertexID) *Traversal { return core.Traverse(src...) }

// IsRetryable reports whether err is a transient transaction abort
// (conflict or lock timeout) worth retrying. Context cancellation and
// deadline errors are not retryable.
func IsRetryable(err error) bool { return core.IsRetryable(err) }

// Update runs fn in a write transaction, retrying on transient aborts up to
// maxRetries times. fn must be idempotent. If fn returns an error the
// transaction is aborted and the error returned.
func Update(g *Graph, maxRetries int, fn func(tx *Tx) error) error {
	//lglint:ignore ctxprop public convenience wrapper; ctx-aware callers use UpdateCtx
	return UpdateCtx(context.Background(), g, maxRetries, fn)
}

// UpdateCtx is Update bound to ctx: the transaction's slot, lock and
// group-commit waits all respect the context's deadline, and retries stop
// once the context is done. fn must be idempotent.
func UpdateCtx(ctx context.Context, g *Graph, maxRetries int, fn func(tx *Tx) error) error {
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		var tx *Tx
		tx, err = g.BeginCtx(ctx)
		if err != nil {
			return err
		}
		if err = fn(tx); err != nil {
			tx.Abort()
			if IsRetryable(err) {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				continue
			}
			return err
		}
		if err = tx.CommitCtx(ctx); err == nil {
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
	}
	return err
}

// View runs fn in a read-only snapshot transaction.
func View(g *Graph, fn func(tx *Tx) error) error {
	//lglint:ignore ctxprop public convenience wrapper; ctx-aware callers use ViewCtx
	return ViewCtx(context.Background(), g, fn)
}

// ViewCtx is View bound to ctx, which bounds the wait for a worker slot.
// Read-only transactions never block after that, so fn should capture ctx
// itself for cancellable work inside the view (e.g. Traversal.Run).
func ViewCtx(ctx context.Context, g *Graph, fn func(tx *Tx) error) error {
	tx, err := g.BeginReadCtx(ctx)
	if err != nil {
		return err
	}
	defer tx.Commit()
	return fn(tx)
}
