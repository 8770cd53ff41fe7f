package repl_test

// End-to-end replication: a durable primary behind the real HTTP server,
// a follower fed by an Applier over a real connection, concurrent writers
// on the primary — the follower must serve transactionally consistent
// snapshots at every instant, survive a forced stream disconnect, and
// resume from its applied epoch without skipping or re-applying a group.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/repl"
	"livegraph/internal/server"
)

// pair is the test workload's atomicity witness: every transaction
// inserts one edge on label 0 AND one on label 1 for the same source, so
// any consistent snapshot shows equal degrees on the two labels for every
// source — a torn group would break the equality.
func writePair(t testing.TB, c *server.Client, src, dst int64) {
	t.Helper()
	_, err := c.Tx(
		server.Op{Op: "insertEdge", Src: src, Label: 0, Dst: dst},
		server.Op{Op: "insertEdge", Src: src, Label: 1, Dst: dst},
	)
	if err != nil {
		t.Error(err)
	}
}

func waitCatchUp(t testing.TB, primary, follower *core.Graph, deadline time.Duration) {
	t.Helper()
	target := primary.ReadEpoch()
	for start := time.Now(); follower.ReadEpoch() < target; {
		if time.Since(start) > deadline {
			t.Fatalf("follower stuck at epoch %d, primary at %d", follower.ReadEpoch(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	primary, err := core.Open(core.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ps := server.New(primary)
	hs := httptest.NewServer(ps)
	defer hs.Close()
	client := server.NewClient(hs.URL)

	follower, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ap := repl.NewApplier(follower, hs.URL)
	ap.ReconnectBase = time.Millisecond

	runCtx, stopStream := context.WithCancel(context.Background())
	apDone := make(chan error, 1)
	go func() { apDone <- ap.Run(runCtx) }()

	// Phase 1: concurrent writers + concurrent follower snapshot checks.
	const writers, perWriter, srcs = 4, 60, 8
	var wg sync.WaitGroup
	checksDone := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				writePair(t, client, int64((w*perWriter+i)%srcs), int64(srcs+w*perWriter+i))
			}
		}(w)
	}
	go func() {
		defer close(checksDone)
		for {
			select {
			case <-runCtx.Done():
				return
			default:
			}
			snap, err := follower.Snapshot()
			if err != nil {
				return
			}
			for s := int64(0); s < srcs; s++ {
				d0 := snap.Degree(core.VertexID(s), 0)
				d1 := snap.Degree(core.VertexID(s), 1)
				if d0 != d1 {
					t.Errorf("follower snapshot at epoch %d inconsistent: src %d has %d/%d edges on labels 0/1",
						snap.Epoch(), s, d0, d1)
					return
				}
			}
			snap.Release()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	waitCatchUp(t, primary, follower, 10*time.Second)

	// Phase 2: forced disconnect. Kill the stream mid-deployment, keep
	// writing, then resume from the applied epoch.
	stopStream()
	if err := <-apDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("applier exit = %v, want context.Canceled", err)
	}
	<-checksDone
	resumeFrom := follower.ReadEpoch()
	for i := 0; i < 50; i++ {
		writePair(t, client, int64(i%srcs), int64(1000+i))
	}
	if primary.ReadEpoch() <= resumeFrom {
		t.Fatal("primary did not advance while the stream was down")
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	apDone2 := make(chan error, 1)
	go func() { apDone2 <- ap.Run(ctx2) }()
	waitCatchUp(t, primary, follower, 10*time.Second)
	// ApplyEpoch rejects out-of-order groups, so reaching the primary's
	// epoch proves the resume neither skipped nor re-applied anything;
	// equality of full adjacency state proves it byte-for-byte.
	compareGraphs(t, primary, follower, srcs)

	cancel2()
	<-apDone2

	// The follower rejects local writes the whole time.
	if _, err := follower.Begin(); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("follower Begin = %v, want ErrFollower", err)
	}
}

// compareGraphs asserts identical adjacency lists (both labels) for every
// source vertex at the two graphs' current epochs.
func compareGraphs(t testing.TB, primary, follower *core.Graph, srcs int64) {
	t.Helper()
	if p, f := primary.ReadEpoch(), follower.ReadEpoch(); p != f {
		t.Fatalf("epochs diverge: primary %d, follower %d", p, f)
	}
	ps, err := primary.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Release()
	fs, err := follower.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Release()
	// NumVertices is deliberately not compared: a live primary does not
	// allocate IDs for edge endpoints, while the replay path (recovery
	// and replication alike) raises the ID frontier past them.
	for s := int64(0); s < srcs; s++ {
		for label := core.Label(0); label <= 1; label++ {
			var pl, fl []string
			ps.ScanNeighbors(core.VertexID(s), label, func(dst core.VertexID, props []byte) bool {
				pl = append(pl, fmt.Sprintf("%d:%x", dst, props))
				return true
			})
			fs.ScanNeighbors(core.VertexID(s), label, func(dst core.VertexID, props []byte) bool {
				fl = append(fl, fmt.Sprintf("%d:%x", dst, props))
				return true
			})
			if !reflect.DeepEqual(pl, fl) {
				t.Fatalf("src %d label %d: primary %v, follower %v", s, label, pl, fl)
			}
		}
	}
}

// TestReplicationHeartbeatAndLag checks that an idle stream still reports
// the primary's durable epoch (so lag is measurable with no traffic).
func TestReplicationHeartbeatAndLag(t *testing.T) {
	primary, err := core.Open(core.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ps := server.New(primary)
	ps.Shipper.Heartbeat = 5 * time.Millisecond
	hs := httptest.NewServer(ps)
	defer hs.Close()
	client := server.NewClient(hs.URL)
	if _, err := client.Tx(server.Op{Op: "addVertex", Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}

	follower, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ap := repl.NewApplier(follower, hs.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ap.Run(ctx) }()
	waitCatchUp(t, primary, follower, 5*time.Second)

	// Caught up by the stats' own account too: waitCatchUp returns once
	// ApplyEpoch has published, a moment before the applier stores
	// AppliedEpoch, and in that window the lag honestly reads 1.
	deadline := time.Now().Add(5 * time.Second)
	for ap.Stats.SourceEpoch.Load() < primary.DurableEpoch() || ap.Stats.AppliedEpoch.Load() < primary.DurableEpoch() {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never delivered source epoch %d (have %d, applied %d)",
				primary.DurableEpoch(), ap.Stats.SourceEpoch.Load(), ap.Stats.AppliedEpoch.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if lag := ap.Stats.LagEpochs(); lag != 0 {
		t.Fatalf("idle caught-up replica reports lag %d", lag)
	}
	cancel()
	<-done
}

// TestShipperResumePositionGone: a replica asking for epochs behind the
// primary's checkpoint gets a terminal resync answer, not a silent gap.
func TestShipperResumePositionGone(t *testing.T) {
	primary, err := core.Open(core.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ps := server.New(primary)
	hs := httptest.NewServer(ps)
	defer hs.Close()
	client := server.NewClient(hs.URL)
	for i := 0; i < 5; i++ {
		if _, err := client.Tx(server.Op{Op: "addVertex"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	follower, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ap := repl.NewApplier(follower, hs.URL) // resumes after=0 < checkpoint epoch
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ap.Run(ctx); !errors.Is(err, repl.ErrResyncRequired) {
		t.Fatalf("Run = %v, want ErrResyncRequired", err)
	}
}

// TestShipperClose drains an open stream promptly.
func TestShipperClose(t *testing.T) {
	primary, err := core.Open(core.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ps := server.New(primary)
	hs := httptest.NewServer(ps)
	defer hs.Close()

	follower, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ap := repl.NewApplier(follower, hs.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ap.Run(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for ps.Shipper.Stats.StreamsOpen.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never opened")
		}
		time.Sleep(time.Millisecond)
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer ccancel()
	if err := ps.Close(cctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := ps.Shipper.Stats.StreamsOpen.Load(); n != 0 {
		t.Fatalf("%d streams still open after Close", n)
	}
}

// TestFollowerFootprintBounded is the replica-reclamation fix end to end:
// a sustained upsert churn on the primary (live state constant, garbage
// linear in time) streams to a follower whose background maintenance is
// tuned aggressively. Without follower-side compaction the replica's
// allocator footprint grows with every applied version; with the
// maintenance engine it must stay within a small factor of the primary's
// compacted footprint.
func TestFollowerFootprintBounded(t *testing.T) {
	primary, err := core.Open(core.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ps := server.New(primary)
	hs := httptest.NewServer(ps)
	defer hs.Close()
	client := server.NewClient(hs.URL)

	follower, err := core.Open(core.Options{Maint: core.MaintOptions{
		SliceVertices:    16,
		SliceBudget:      100 * time.Microsecond,
		Yield:            10 * time.Microsecond,
		Interval:         2 * time.Millisecond,
		DirtyTrigger:     8,
		DeadBytesTrigger: 1024,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ap := repl.NewApplier(follower, hs.URL)
	ap.ReconnectBase = time.Millisecond
	runCtx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	apDone := make(chan error, 1)
	go func() { apDone <- ap.Run(runCtx) }()

	// Churn: the same 32 (src,dst) pairs upserted round after round.
	const slots, rounds = 32, 120
	for r := 0; r < rounds; r++ {
		ops := make([]server.Op, 0, slots)
		for s := 0; s < slots; s++ {
			ops = append(ops, server.Op{Op: "upsertEdge", Src: int64(s % 4), Label: 0, Dst: int64(10 + s), Props: []byte{byte(r)}})
		}
		if _, err := client.Tx(ops...); err != nil {
			t.Fatal(err)
		}
	}
	waitCatchUp(t, primary, follower, 30*time.Second)

	// Give the follower's scheduler a beat to drain its backlog, then
	// compare steady-state footprints. The primary compacts on demand;
	// the follower must have compacted on its own (no CompactNow here).
	// Each wait phase gets its own deadline so a slow host eating the
	// first wait cannot starve the second.
	deadline := time.Now().Add(10 * time.Second)
	for follower.MaintStats().Passes.Load() == 0 || follower.MaintStats().VerticesCompacted.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower ran no maintenance passes (stats: %d passes)", follower.MaintStats().Passes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	primary.CompactNow()
	pw := primary.AllocStats().AllocatedWords
	// Poll: background slices may still be catching the churn's tail.
	deadline = time.Now().Add(10 * time.Second)
	var fw int64
	for {
		fw = follower.AllocStats().AllocatedWords
		if fw <= 4*pw || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fw > 4*pw {
		t.Fatalf("follower footprint %d words vs primary %d words: replica not reclaiming", fw, pw)
	}

	// The live state must be intact on the follower.
	waitCatchUp(t, primary, follower, 10*time.Second)
	snap, err := follower.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for s := int64(0); s < 4; s++ {
		if d := snap.Degree(core.VertexID(s), 0); d != slots/4 {
			t.Fatalf("follower degree(src %d) = %d, want %d", s, d, slots/4)
		}
	}
	stopStream()
	<-apDone
}

func TestReplStats(t *testing.T) {
	var r repl.Stats
	r.ObserveSourceEpoch(10)
	r.ObserveSourceEpoch(7) // monotonic
	if got := r.SourceEpoch.Load(); got != 10 {
		t.Fatalf("SourceEpoch = %d, want 10", got)
	}
	r.AppliedEpoch.Store(6)
	if got := r.LagEpochs(); got != 4 {
		t.Fatalf("LagEpochs = %d, want 4", got)
	}
	r.AppliedEpoch.Store(12) // applied can lead a stale source observation
	if got := r.LagEpochs(); got != 0 {
		t.Fatalf("LagEpochs = %d, want 0", got)
	}
}
