package core

// Replication-apply tests: a follower graph fed by wal.Tail +
// ApplyEpoch must be indistinguishable, Reader by Reader and epoch by
// epoch, from the primary whose log it replays — including while the
// primary compacts.

import (
	"errors"
	"reflect"
	"testing"

	"livegraph/internal/wal"
)

// catchUp pumps every available group from the primary's WAL into the
// follower and returns how many groups were applied.
func catchUp(t testing.TB, tl *wal.Tailer, follower *Graph) int {
	t.Helper()
	n := 0
	for {
		f, ok, err := tl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		if err := follower.ApplyEpoch(f.Epoch, f.Recs); err != nil {
			t.Fatal(err)
		}
		n++
	}
}

func openFollower(t testing.TB, opts Options) *Graph {
	t.Helper()
	opts.Dir = "" // followers are volatile; their state is the primary's log
	g, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// TestReaderConformanceFollower ships the conformance fixture over the
// WAL into a follower and runs the full Reader battery against the
// follower's snapshot and read transaction.
func TestReaderConformanceFollower(t *testing.T) {
	dir := t.TempDir()
	primary := openDurable(t, dir)
	defer primary.Close()
	f := buildReaderFixtureOn(t, primary)

	follower := openFollower(t, Options{})
	tl := wal.Tail(dir, 0, primary.DurableEpoch)
	defer tl.Close()
	catchUp(t, tl, follower)

	if got, want := follower.ReadEpoch(), primary.ReadEpoch(); got != want {
		t.Fatalf("follower applied epoch %d, primary at %d", got, want)
	}
	ff := &readerFixture{g: follower, a: f.a, b: f.b, c: f.c, d: f.d}

	snap, err := follower.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	runReaderConformance(t, ff, snap)

	tx, err := follower.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	runReaderConformance(t, ff, tx)
}

func TestApplyEpochFollowerRejectsWritesAndReplays(t *testing.T) {
	dir := t.TempDir()
	primary := openDurable(t, dir)
	defer primary.Close()
	mustCommit(t, primary, func(tx *Tx) {
		tx.AddVertex([]byte("v"))
	})

	follower := openFollower(t, Options{})
	tl := wal.Tail(dir, 0, primary.DurableEpoch)
	defer tl.Close()
	if n := catchUp(t, tl, follower); n == 0 {
		t.Fatal("no groups shipped")
	}
	// The follower rejects local writes...
	if _, err := follower.Begin(); !errors.Is(err, ErrFollower) {
		t.Fatalf("Begin on follower = %v, want ErrFollower", err)
	}
	// ...and re-applying or rewinding the stream is an error, never a
	// silent double-apply.
	cur := follower.ReadEpoch()
	if err := follower.ApplyEpoch(cur, nil); err == nil {
		t.Fatal("re-applying the current epoch succeeded")
	}
	// Promotion lifts the write ban.
	follower.SetFollower(false)
	mustCommit(t, follower, func(tx *Tx) {
		tx.AddVertex([]byte("promoted"))
	})
}

// TestApplySnapshotIsolation pins follower snapshots while later groups
// apply: each snapshot must keep seeing exactly its epoch's state.
func TestApplySnapshotIsolation(t *testing.T) {
	dir := t.TempDir()
	primary := openDurable(t, dir)
	defer primary.Close()
	var v VertexID
	mustCommit(t, primary, func(tx *Tx) { v, _ = tx.AddVertex([]byte("v0")) })

	follower := openFollower(t, Options{})
	tl := wal.Tail(dir, 0, primary.DurableEpoch)
	defer tl.Close()
	catchUp(t, tl, follower)

	snap0, err := follower.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap0.Release()
	deg0 := snap0.Degree(v, 0)

	for i := 0; i < 10; i++ {
		mustCommit(t, primary, func(tx *Tx) {
			tx.InsertEdge(v, 0, v+1, []byte{byte(i)})
		})
	}
	catchUp(t, tl, follower)

	if got := snap0.Degree(v, 0); got != deg0 {
		t.Fatalf("pinned snapshot's degree moved: %d -> %d", deg0, got)
	}
	snapN, err := follower.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snapN.Release()
	if got := snapN.Degree(v, 0); got != deg0+10 {
		t.Fatalf("fresh snapshot degree = %d, want %d", got, deg0+10)
	}
}

// TestApplyWithCompaction interleaves replication apply with compaction
// passes on both sides, under history retention, then checks that
// temporal snapshots at every retained epoch are identical between
// primary and follower — compaction must reclaim only what neither side's
// retained readers could see.
func TestApplyWithCompaction(t *testing.T) {
	const retention = 1 << 20 // retain everything this test writes
	dir := t.TempDir()
	primary, err := Open(Options{Dir: dir, HistoryRetention: retention, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower := openFollower(t, Options{HistoryRetention: retention, CompactEvery: -1})
	tl := wal.Tail(dir, 0, primary.DurableEpoch)
	defer tl.Close()

	const vertices = 8
	var ids [vertices]VertexID
	mustCommit(t, primary, func(tx *Tx) {
		for i := range ids {
			ids[i], _ = tx.AddVertex([]byte{byte(i)})
		}
	})
	baseEpoch := primary.ReadEpoch()

	// Churn: upserts and deletes so compaction has dead versions to
	// reclaim, with compaction and apply interleaved.
	for round := 0; round < 40; round++ {
		mustCommit(t, primary, func(tx *Tx) {
			src := ids[round%vertices]
			dst := ids[(round+1)%vertices]
			tx.AddEdge(src, 0, dst, []byte{byte(round)})
			if round%3 == 2 {
				tx.DeleteEdge(ids[(round-1)%vertices], 0, ids[round%vertices])
			}
		})
		switch round % 10 {
		case 4:
			primary.CompactNow()
		case 7:
			catchUp(t, tl, follower)
			follower.CompactNow()
		case 9:
			catchUp(t, tl, follower)
		}
	}
	catchUp(t, tl, follower)
	if follower.ReadEpoch() != primary.ReadEpoch() {
		t.Fatalf("follower at %d, primary at %d", follower.ReadEpoch(), primary.ReadEpoch())
	}

	// Every retained epoch must read identically on both sides.
	for epoch := baseEpoch; epoch <= primary.ReadEpoch(); epoch++ {
		ps, err := primary.SnapshotAt(epoch)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := follower.SnapshotAt(epoch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			pn := scanList(ps, ids[i], 0)
			fn := scanList(fs, ids[i], 0)
			if !reflect.DeepEqual(pn, fn) {
				t.Fatalf("epoch %d vertex %d: primary %v, follower %v", epoch, ids[i], pn, fn)
			}
		}
		ps.Release()
		fs.Release()
	}
}

// scanList materialises a snapshot's (v,label) adjacency list with props.
func scanList(s *Snapshot, v VertexID, label Label) []string {
	out := []string{}
	s.ScanNeighbors(v, label, func(dst VertexID, props []byte) bool {
		out = append(out, string([]byte{byte(dst)})+":"+string(props))
		return true
	})
	return out
}
