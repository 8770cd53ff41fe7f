package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"livegraph/internal/disk"
)

// drainTailer pulls every currently available group from t, failing the
// test if a group arrives twice or out of epoch order.
func drainTailer(t *testing.T, tl *Tailer) map[int64][]string {
	t.Helper()
	got := map[int64][]string{}
	last := tl.Position()
	for {
		f, ok, err := tl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		if f.Epoch <= last {
			t.Fatalf("group %d delivered after %d", f.Epoch, last)
		}
		last = f.Epoch
		for _, r := range f.Recs {
			got[f.Epoch] = append(got[f.Epoch], string(r))
		}
	}
}

func openSeg(t *testing.T, dir string, seq int) *Log {
	t.Helper()
	l, err := Open(dir, seq, disk.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func recsOf(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestTailerFollowsGrowth(t *testing.T) {
	l, dir := openTemp(t)
	l.AppendGroup(1, recsOf("a", "b"))
	tl := Tail(dir, 0, l.DurableEpoch)
	defer tl.Close()
	if got := drainTailer(t, tl); !reflect.DeepEqual(got, map[int64][]string{1: {"a", "b"}}) {
		t.Fatalf("first drain: %v", got)
	}
	// The log grows after the tailer went dry; the next poll sees it.
	l.AppendGroup(2, recsOf("c"))
	l.AppendGroup(3, recsOf("d"))
	if got := drainTailer(t, tl); !reflect.DeepEqual(got, map[int64][]string{2: {"c"}, 3: {"d"}}) {
		t.Fatalf("second drain: %v", got)
	}
	if tl.Position() != 3 {
		t.Fatalf("Position = %d", tl.Position())
	}
}

// Each group is delivered exactly once, in epoch order, when the resume
// point lands mid-segment and the log rotates under the tailer.
func TestTailerResumeMidSegmentAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	s1 := openSeg(t, dir, 1)
	for e := int64(1); e <= 5; e++ {
		s1.AppendGroup(e, recsOf(string(rune('0'+e))))
	}
	tl := Tail(dir, 3, nil)
	defer tl.Close()
	if got, want := drainTailer(t, tl), (map[int64][]string{4: {"4"}, 5: {"5"}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after 3 delivered %v, want %v", got, want)
	}
	// Rotate: close segment 1, open segment 2, keep committing.
	s1.Close()
	s2 := openSeg(t, dir, 2)
	s2.AppendGroup(6, recsOf("6"))
	s2.AppendGroup(7, recsOf("7a", "7b"))
	if got, want := drainTailer(t, tl), (map[int64][]string{6: {"6"}, 7: {"7a", "7b"}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-rotation drain %v, want %v", got, want)
	}
	// A second tailer resuming inside segment 2 skips what precedes it.
	tl2 := Tail(dir, 6, nil)
	defer tl2.Close()
	if got, want := drainTailer(t, tl2), (map[int64][]string{7: {"7a", "7b"}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after 6 delivered %v, want %v", got, want)
	}
}

func TestTailerDiscardsTornTailOnRotation(t *testing.T) {
	// Segment 1 ends in a torn (never-acknowledged) group; once segment 2
	// exists the tailer must discard the tear and move on rather than
	// wait forever — even under a watermark that has since passed the torn
	// group's epoch, which the restarted primary reuses.
	dir := t.TempDir()
	s1 := openSeg(t, dir, 1)
	s1.AppendGroup(1, recsOf("good"))
	s1.AppendGroup(2, recsOf("torn0", "torn1"))
	s1.Close()
	st, _ := os.Stat(s1.path)
	if err := os.Truncate(s1.path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	watermark := int64(1)
	tl := Tail(dir, 0, func() int64 { return watermark })
	defer tl.Close()
	if got := drainTailer(t, tl); !reflect.DeepEqual(got, map[int64][]string{1: {"good"}}) {
		t.Fatalf("torn tail leaked: %v", got)
	}
	s2 := openSeg(t, dir, 2)
	s2.AppendGroup(2, recsOf("after"))
	watermark = 2
	if got := drainTailer(t, tl); !reflect.DeepEqual(got, map[int64][]string{2: {"after"}}) {
		t.Fatalf("post-rotation drain: %v", got)
	}
}

// In the live segment a frame that does not verify is lag while its epoch
// is above the durability watermark, and damage once the watermark covers
// it.
func TestTailerDamageVersusLag(t *testing.T) {
	l, dir := openTemp(t)
	l.AppendGroup(1, recsOf("keep"))
	l.AppendGroup(2, recsOf("lost0", "lost1"))
	l.Close()
	// Chop 2 bytes: group 2's header is complete, its body torn.
	st, _ := os.Stat(l.path)
	if err := os.Truncate(l.path, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	want := map[int64][]string{1: {"keep"}}
	// With no durability witness, or one that has not reached the torn
	// group, the tailer waits: it cannot tell a tear from a write in
	// progress.
	for _, durable := range []func() int64{nil, func() int64 { return 1 }} {
		tl := Tail(dir, 0, durable)
		if got := drainTailer(t, tl); !reflect.DeepEqual(got, want) {
			t.Fatalf("tail recs=%v", got)
		}
		if got := drainTailer(t, tl); len(got) != 0 {
			t.Fatalf("second poll delivered %v", got)
		}
		tl.Close()
	}
	// One told epoch 2 is durable knows the log is damaged.
	tl := Tail(dir, 0, func() int64 { return 2 })
	defer tl.Close()
	if f, ok, err := tl.Next(); err != nil || !ok || f.Epoch != 1 {
		t.Fatalf("first group: epoch=%d ok=%v err=%v", f.Epoch, ok, err)
	}
	if _, ok, err := tl.Next(); err == nil {
		t.Fatalf("tailer reported lag (ok=%v) for a group its durability witness proved torn", ok)
	}
}

func TestTailerResumeBelowCheckpointIsGone(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpointMeta(dir, CheckpointMeta{BaseEpoch: 40, MinWALSeq: 3}); err != nil {
		t.Fatal(err)
	}
	// A mid-prune leftover below MinWALSeq is not where tailing starts.
	openSeg(t, dir, 2).AppendGroup(39, recsOf("superseded"))
	openSeg(t, dir, 3).AppendGroup(41, recsOf("live"))
	// Resuming after an epoch the checkpoint superseded: the groups
	// between it and the checkpoint are pruned — gone, not empty.
	tl := Tail(dir, 10, nil)
	defer tl.Close()
	if _, _, err := tl.Next(); !errors.Is(err, ErrTailGone) {
		t.Fatalf("Next below checkpoint = %v, want ErrTailGone", err)
	}
	// Resuming at the checkpoint epoch is fine.
	tl2 := Tail(dir, 40, nil)
	defer tl2.Close()
	if got := drainTailer(t, tl2); !reflect.DeepEqual(got, map[int64][]string{41: {"live"}}) {
		t.Fatalf("resume at checkpoint: %v", got)
	}
}

func TestTailerFallsBehindCheckpointIsGone(t *testing.T) {
	// The tailer is parked at the end of segment 1 when a checkpoint
	// prunes segment 2 (holding epochs it never saw) and moves on to 3.
	dir := t.TempDir()
	s1 := openSeg(t, dir, 1)
	s1.AppendGroup(1, recsOf("a"))
	tl := Tail(dir, 0, nil)
	defer tl.Close()
	drainTailer(t, tl)
	s1.Close()
	if err := WriteCheckpointMeta(dir, CheckpointMeta{BaseEpoch: 5, MinWALSeq: 3}); err != nil {
		t.Fatal(err)
	}
	os.Remove(s1.path)
	openSeg(t, dir, 3).AppendGroup(6, recsOf("b"))
	if _, _, err := tl.Next(); !errors.Is(err, ErrTailGone) {
		t.Fatalf("Next across a pruned gap = %v, want ErrTailGone", err)
	}
}

func TestSegmentsListing(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []int{2, 10, 1} {
		openSeg(t, dir, seq)
	}
	segs, maxSeq, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{1, SegmentPath(dir, 1)}, {2, SegmentPath(dir, 2)}, {10, SegmentPath(dir, 10)}}
	if maxSeq != 10 || !reflect.DeepEqual(segs, want) {
		t.Fatalf("segs=%+v maxSeq=%d", segs, maxSeq)
	}
	// A log file the layout does not produce is an error, never a skip.
	os.WriteFile(filepath.Join(dir, "wal-000001-s01.log"), nil, 0o644)
	if _, _, err := Segments(dir); !errors.Is(err, ErrSegmentName) {
		t.Fatalf("Segments with a sharded-layout file = %v, want ErrSegmentName", err)
	}
}
