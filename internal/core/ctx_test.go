package core

// Context plumbing tests: deadlines and cancellation must cut through the
// three places a transaction can block — the worker-slot wait, a vertex
// lock wait, and the group-commit wait.

import (
	"context"
	"errors"
	"testing"
	"time"

	"livegraph/internal/disk"
	"livegraph/internal/iosim"
)

func TestBeginCtxCancelled(t *testing.T) {
	g := openMem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.BeginCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BeginCtx(cancelled) err = %v", err)
	}
	if _, err := g.BeginReadCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BeginReadCtx(cancelled) err = %v", err)
	}
}

func TestBeginCtxSlotExhaustion(t *testing.T) {
	g, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	t1, _ := g.Begin()
	t2, _ := g.Begin()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := g.BeginCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("BeginCtx with no free slots err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("BeginCtx blocked %v past its deadline", elapsed)
	}
	t1.Abort()
	t2.Abort()
}

// TestLockWaitCancellation is the acceptance check: a cancelled context
// aborts a lock-waiting transaction within its deadline, long before the
// engine's own LockTimeout would fire.
func TestLockWaitCancellation(t *testing.T) {
	g, err := Open(Options{LockTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var v VertexID
	mustCommit(t, g, func(tx *Tx) { v, _ = tx.AddVertex([]byte("hot")) })

	holder, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.PutVertex(v, []byte("held")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	waiter, err := g.BeginCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = waiter.PutVertex(v, []byte("want"))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("lock wait err = %v, want DeadlineExceeded", err)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("lock wait took %v; the 10s LockTimeout won over the 50ms deadline", elapsed)
	}
	// The waiter was aborted by the engine; further use reports ErrTxDone.
	if _, err := waiter.GetVertex(v); !errors.Is(err, ErrTxDone) {
		t.Fatalf("aborted waiter GetVertex err = %v, want ErrTxDone", err)
	}

	// The holder is unaffected and commits.
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ := g.BeginRead()
	defer tx.Commit()
	if data, _ := tx.GetVertex(v); string(data) != "held" {
		t.Fatalf("final vertex = %q, want %q", data, "held")
	}
}

// TestCommitCtxWithdrawnWhileQueued parks the group committer by holding
// the leader lock, lets a CommitCtx deadline fire while the transaction is
// still queued, and verifies the withdrawal is a definitive abort: the
// write never becomes visible.
func TestCommitCtxWithdrawnWhileQueued(t *testing.T) {
	g := openMem(t)
	var v VertexID
	mustCommit(t, g, func(tx *Tx) { v, _ = tx.AddVertex(nil) })

	g.commit.lock() // impersonate a stuck leader
	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertEdge(v, 0, v, []byte("never")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = tx.CommitCtx(ctx)
	elapsed := time.Since(start)
	g.commit.unlock()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CommitCtx err = %v, want DeadlineExceeded", err)
	}
	if errors.Is(err, ErrCommitOutcomeUnknown) {
		t.Fatalf("withdrawn commit reported an unknown outcome: %v", err)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("CommitCtx blocked %v despite 30ms deadline", elapsed)
	}

	// Withdrawn means aborted: the edge must never appear, even after the
	// committer is unstuck and later groups commit.
	mustCommit(t, g, func(w *Tx) { w.InsertEdge(v, 1, v, nil) })
	r, _ := g.BeginRead()
	defer r.Commit()
	if _, err := r.GetEdge(v, 0, v); !errors.Is(err, ErrNotFound) {
		t.Fatalf("withdrawn transaction's edge is visible (err=%v)", err)
	}
	if g.stats.Aborts.Load() == 0 {
		t.Fatal("withdrawal not counted as an abort")
	}
}

// TestCommitCtxMidGroupCommitDeadline commits onto a device whose fsync
// takes far longer than the context deadline: CommitCtx must return
// DeadlineExceeded while the persist phase is still running, and the
// detached group must still finish cleanly in the background.
func TestCommitCtxMidGroupCommitDeadline(t *testing.T) {
	slow := iosim.NewDevice(iosim.Profile{Name: "Glacial", WriteLatency: 400 * time.Millisecond})
	g, err := Open(Options{Dir: t.TempDir(), Backend: disk.NewSim(slow, disk.NewReal())})
	if err != nil {
		t.Fatal(err)
	}
	var v VertexID
	mustCommit(t, g, func(tx *Tx) { v, _ = tx.AddVertex(nil) }) // slow, but no deadline

	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertEdge(v, 0, v, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = tx.CommitCtx(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CommitCtx err = %v, want DeadlineExceeded", err)
	}
	if !errors.Is(err, ErrCommitOutcomeUnknown) {
		t.Fatalf("mid-group-commit deadline must report ErrCommitOutcomeUnknown, got %v", err)
	}
	if elapsed >= 350*time.Millisecond {
		t.Fatalf("CommitCtx returned after %v — it waited out the fsync instead of the deadline", elapsed)
	}

	// The detached group finishes in the background (this transaction led
	// its own group, so the outcome here is a commit). Wait for it before
	// closing the graph.
	deadline := time.Now().Add(10 * time.Second)
	for g.stats.Commits.Load()+g.stats.Aborts.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("detached commit never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitCtxCompleted: a context that stays live leaves CommitCtx
// exactly equivalent to Commit.
func TestCommitCtxCompleted(t *testing.T) {
	g := openMem(t)
	ctx := context.Background()
	tx, err := g.BeginCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v, err := tx.AddVertex([]byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitCtx(ctx); err != nil {
		t.Fatal(err)
	}
	r, _ := g.BeginRead()
	defer r.Commit()
	if data, err := r.GetVertex(v); err != nil || string(data) != "ok" {
		t.Fatalf("GetVertex = %q, %v", data, err)
	}
	if err := tx.CommitCtx(ctx); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second CommitCtx err = %v, want ErrTxDone", err)
	}
}
