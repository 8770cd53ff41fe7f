package core

import (
	"errors"
	"fmt"
)

var (
	// ErrConflict is returned when a transaction tries to modify a vertex or
	// adjacency list that another transaction committed to after this
	// transaction's snapshot was taken (first-committer-wins under snapshot
	// isolation). The transaction has been aborted; retry it.
	ErrConflict = errors.New("livegraph: write-write conflict, transaction aborted")

	// ErrLockTimeout is returned when a vertex lock could not be acquired
	// before the deadline — the paper's deadlock-avoidance mechanism. The
	// transaction has been aborted; retry it.
	ErrLockTimeout = errors.New("livegraph: lock timeout, transaction aborted")

	// ErrTxDone is returned when operating on a committed or aborted
	// transaction.
	ErrTxDone = errors.New("livegraph: transaction already finished")

	// ErrReadOnly is returned when a write operation is attempted on a
	// read-only transaction.
	ErrReadOnly = errors.New("livegraph: read-only transaction")

	// ErrOutOfRange is returned, without aborting the transaction, by a
	// write naming a vertex or edge source outside [0, MaxVertexID), a
	// negative destination or a label outside [0, MaxLabel), and by
	// AddVertex once the vertex-ID frontier has reached MaxVertexID.
	ErrOutOfRange = fmt.Errorf("livegraph: vertex or source outside [0, %d), negative destination or label outside [0, %d)", uint64(MaxVertexID), MaxLabel)

	// ErrNotFound is returned when a referenced vertex or edge does not
	// exist in the transaction's snapshot.
	ErrNotFound = errors.New("livegraph: not found")

	// ErrClosed is returned when the graph has been closed.
	ErrClosed = errors.New("livegraph: graph closed")

	// ErrHistoryGone is returned by Graph.SnapshotAt (and by traversals
	// using AsOf) when the requested epoch is older than the configured
	// HistoryRetention window, so compaction may already have reclaimed
	// versions it needs.
	ErrHistoryGone = errors.New("livegraph: epoch outside the retained history window")

	// ErrFollower is returned by Begin/BeginCtx on a read replica: a
	// follower's state is dictated by the replication stream (ApplyEpoch),
	// so local write transactions are rejected. Route writes to the
	// primary; reads (BeginRead, Snapshot) are unaffected.
	ErrFollower = errors.New("livegraph: read replica, writes must go to the primary")

	// ErrCommitOutcomeUnknown wraps the context error CommitCtx returns
	// when the deadline fired after a group leader had already claimed the
	// transaction: the commit may or may not become durable and visible.
	// When CommitCtx returns a context error NOT wrapped in this sentinel,
	// the transaction definitively did not commit. Check with
	// errors.Is(err, ErrCommitOutcomeUnknown).
	ErrCommitOutcomeUnknown = errors.New("livegraph: commit outcome unknown")

	// ErrCheckpointDamaged wraps what Open returns when a checkpoint file
	// the CHECKPOINT meta references breaks a rule its writer guarantees:
	// a wrong magic, a frame that does not verify or has another epoch, no
	// end frame or bytes after it, or an op that does not decode or keep
	// the writer's order below the header's nextVertexID.
	ErrCheckpointDamaged = errors.New("livegraph: damaged checkpoint file")
)

// IsRetryable reports whether err indicates a transient abort (conflict or
// lock timeout) that callers should respond to by re-running the
// transaction. Context cancellation and deadline errors are deliberately
// not retryable: the caller asked for the work to stop.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrConflict) || errors.Is(err, ErrLockTimeout)
}
