package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"livegraph/internal/disk"
	"livegraph/internal/iosim"
)

func openTemp(t *testing.T) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, 1, disk.NewSim(iosim.NewDevice(iosim.Null)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, dir
}

// replayAll replays one segment file into a per-epoch record map.
func replayAll(t *testing.T, path string, afterEpoch int64) (recs map[int64][]string, durable int64) {
	t.Helper()
	recs = map[int64][]string{}
	durable, err := Replay(path, afterEpoch, func(e int64, rec []byte) error {
		recs[e] = append(recs[e], string(rec))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, durable
}

// memBackend is a disk.Backend whose one log file lives in memory (or, with
// discard set, nowhere: only byte counts are kept), for tests that need the
// exact bytes AppendGroup produces or groups too big to put on disk.
type memBackend struct {
	disk.Backend
	discard  bool
	buf      bytes.Buffer
	accepted int64
	written  int64
}

func (b *memBackend) OpenLog(string, disk.LogGeometry) (disk.LogFile, error) { return b, nil }
func (b *memBackend) SyncDir(string) error                                   { return nil }
func (b *memBackend) Accept(n int) (int, error)                              { b.accepted += int64(n); return n, nil }
func (b *memBackend) Sync() error                                            { return nil }
func (b *memBackend) Close() error                                           { return nil }
func (b *memBackend) Write(p []byte) (int, error) {
	b.written += int64(len(p))
	if !b.discard {
		b.buf.Write(p)
	}
	return len(p), nil
}

// encodeFrame returns the bytes AppendGroup writes for one group.
func encodeFrame(t testing.TB, epoch int64, recs [][]byte) []byte {
	t.Helper()
	mb := &memBackend{}
	l, err := Open("", 1, mb)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGroup(epoch, recs); err != nil {
		t.Fatal(err)
	}
	return mb.buf.Bytes()
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, dir := openTemp(t)
	if err := l.AppendGroup(1, [][]byte{[]byte("alpha"), []byte("beta")}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGroup(2, [][]byte{[]byte("gamma")}); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableEpoch(); got != 2 {
		t.Fatalf("DurableEpoch = %d", got)
	}
	var got []string
	var epochs []int64
	durable, err := Replay(SegmentPath(dir, 1), 0, func(e int64, rec []byte) error {
		epochs = append(epochs, e)
		got = append(got, string(rec))
		return nil
	})
	if err != nil || durable != 2 {
		t.Fatalf("durable=%d err=%v", durable, err)
	}
	if want := []string{"alpha", "beta", "gamma"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if want := []int64{1, 1, 2}; !reflect.DeepEqual(epochs, want) {
		t.Fatalf("epochs %v, want %v", epochs, want)
	}
}

func TestReplayAfterEpochSkips(t *testing.T) {
	l, dir := openTemp(t)
	l.AppendGroup(1, [][]byte{[]byte("old")})
	l.AppendGroup(5, [][]byte{[]byte("new")})
	recs, durable := replayAll(t, l.path, 1)
	if durable != 5 || len(recs) != 1 || recs[5][0] != "new" {
		t.Fatalf("recs=%v durable=%d", recs, durable)
	}
	// Nothing newer than afterEpoch: the watermark is afterEpoch itself.
	if _, durable := replayAll(t, SegmentPath(dir, 1), 9); durable != 9 {
		t.Fatalf("durable = %d, want 9", durable)
	}
}

// A group torn anywhere in its frame is rolled back whole, and nothing
// after it replays: cut the file at every offset inside the middle frame,
// and separately flip every byte of it with the following frame intact.
func TestTornGroupRollsBackWholeAndEndsReplay(t *testing.T) {
	l, _ := openTemp(t)
	l.AppendGroup(1, [][]byte{[]byte("keep-a"), []byte("keep-b")})
	start := l.AppendedBytes()
	l.AppendGroup(2, [][]byte{[]byte("lost-a"), []byte("lost-b"), []byte("lost-c")})
	end := l.AppendedBytes()
	l.AppendGroup(3, [][]byte{[]byte("after")})
	l.Close()
	whole, err := os.ReadFile(l.path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64][]string{1: {"keep-a", "keep-b"}}
	damaged := filepath.Join(t.TempDir(), filepath.Base(l.path))
	check := func(what string, off int64, data []byte) {
		t.Helper()
		if err := os.WriteFile(damaged, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, durable := replayAll(t, damaged, 0)
		if durable != 1 || !reflect.DeepEqual(recs, want) {
			t.Fatalf("%s at offset %d: recs=%v durable=%d; want exactly group 1", what, off, recs, durable)
		}
	}
	for off := start; off < end; off++ {
		check("cut", off, whole[:off])
		flipped := append([]byte(nil), whole...)
		flipped[off] ^= 0xFF
		check("flip", off, flipped)
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	durable, err := Replay(filepath.Join(t.TempDir(), "wal-000001.log"), 4, func(int64, []byte) error {
		t.Fatal("callback on missing file")
		return nil
	})
	if err != nil || durable != 4 {
		t.Fatalf("durable=%d err=%v", durable, err)
	}
}

func TestAppendedBytes(t *testing.T) {
	l, _ := openTemp(t)
	l.AppendGroup(1, [][]byte{make([]byte, 100)})
	// One frame: 16B frame header + 4B sub-record length + payload.
	if got := l.AppendedBytes(); got != 100+16+4 {
		t.Fatalf("AppendedBytes = %d, want 120", got)
	}
}

func TestDeviceCharged(t *testing.T) {
	dev := iosim.NewDevice(iosim.Null)
	l, err := Open(t.TempDir(), 1, disk.NewSim(dev))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendGroup(1, [][]byte{[]byte("abc"), []byte("de")})
	// One group is one frame and one sync, however many records it holds.
	s := dev.Stats()
	if s.Syncs != 1 || s.BytesWritten != 16+(4+3)+(4+2) {
		t.Fatalf("device stats %+v", s)
	}
}

func TestEmptyGroupVacuouslyDurable(t *testing.T) {
	l, _ := openTemp(t)
	if err := l.AppendGroup(7, nil); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableEpoch(); got != 7 {
		t.Fatalf("DurableEpoch = %d", got)
	}
	if n := l.AppendedBytes(); n != 0 {
		t.Fatalf("empty group wrote %d bytes", n)
	}
}

// An injected device crash leaves exactly the accepted prefix on disk, the
// group is not acknowledged, and the log refuses every later append.
func TestDeviceCrashLeavesAcceptedPrefix(t *testing.T) {
	dir := t.TempDir()
	dev := iosim.NewDevice(iosim.Null)
	l, err := Open(dir, 1, disk.NewSim(dev))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 64)
	group := [][]byte{payload, payload, payload, payload}
	if err := l.AppendGroup(1, group); err != nil {
		t.Fatal(err)
	}
	intact := l.AppendedBytes()
	// Arm a crash point inside the next group's frame (288 bytes).
	const budget = 150
	dev.CrashAfter(budget)
	if err := l.AppendGroup(2, group); !errors.Is(err, iosim.ErrCrashed) {
		t.Fatalf("AppendGroup during crash = %v, want ErrCrashed", err)
	}
	if l.DurableEpoch() != 1 {
		t.Fatalf("DurableEpoch advanced past crash: %d", l.DurableEpoch())
	}
	// The clipped write was synced: the tear is what recovery sees.
	if st, err := os.Stat(l.path); err != nil || st.Size() != intact+budget {
		t.Fatalf("file size = %d (err %v), want %d: exactly the accepted prefix", st.Size(), err, intact+budget)
	}
	// Sticky failure: even a healed device gets no more appends — a torn
	// frame sits mid-file, and a group appended after it would be
	// acknowledged yet discarded by replay.
	if err := l.AppendGroup(3, group); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("post-crash AppendGroup = %v, want ErrLogFailed", err)
	}
	dev.Revive()
	if err := l.AppendGroup(4, group); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("AppendGroup after revive = %v, want ErrLogFailed", err)
	}
	if err := l.AppendGroup(5, nil); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("empty group after failure = %v; must not advance durability", err)
	}
	l.Close()
	recs, durable := replayAll(t, l.path, 0)
	if durable != 1 || len(recs) != 1 || len(recs[1]) != 4 {
		t.Fatalf("durable=%d recs=%v; want exactly group 1", durable, recs)
	}
}

// A group past the frame size limit is refused before a byte is accepted,
// without poisoning the log; one exactly at the limit is written.
func TestGroupSizeLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("checksums 1 GiB")
	}
	mb := &memBackend{discard: true}
	l, err := Open("", 1, mb)
	if err != nil {
		t.Fatal(err)
	}
	// 1024 records aliasing one buffer: bodies of exactly MaxGroupBytes and
	// one byte more, without holding a gigabyte.
	chunk := make([]byte, MaxGroupBytes/1024-recHdrSize)
	atLimit := make([][]byte, 1024)
	for i := range atLimit {
		atLimit[i] = chunk
	}
	over := append(append([][]byte(nil), atLimit[:1023]...), make([]byte, len(chunk)+1))

	if err := l.AppendGroup(1, over); !errors.Is(err, ErrGroupTooLarge) {
		t.Fatalf("oversized group = %v, want ErrGroupTooLarge", err)
	}
	if mb.accepted != 0 || mb.written != 0 || l.DurableEpoch() != 0 {
		t.Fatalf("refused group touched the log: accepted=%d written=%d durable=%d", mb.accepted, mb.written, l.DurableEpoch())
	}
	if err := l.AppendGroup(2, atLimit); err != nil {
		t.Fatalf("group at the limit: %v (the refusal must not poison the log)", err)
	}
	if mb.written != headerSize+MaxGroupBytes || l.DurableEpoch() != 2 {
		t.Fatalf("written=%d durable=%d", mb.written, l.DurableEpoch())
	}
}

// A garbage length field at a torn tail must not cost an allocation of
// that size: the reader knows how many bytes the file still holds.
func TestReplayTornLengthFieldAllocatesNothing(t *testing.T) {
	l, _ := openTemp(t)
	l.AppendGroup(1, [][]byte{[]byte("good")})
	l.Close()
	for _, n := range []uint32{MaxGroupBytes, MaxGroupBytes + 1, 64 << 20} {
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint64(hdr[0:8], 2)
		binary.LittleEndian.PutUint32(hdr[8:12], n)
		binary.LittleEndian.PutUint32(hdr[12:16], 0xDEADBEEF)
		whole, _ := os.ReadFile(l.path)
		path := filepath.Join(t.TempDir(), "wal-000001.log")
		os.WriteFile(path, append(whole, hdr[:]...), 0o644)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, durable := replayAll(t, path, 0)
		runtime.ReadMemStats(&after)
		if durable != 1 || len(recs) != 1 {
			t.Fatalf("len %d: recs=%v durable=%d", n, recs, durable)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("len %d: replay of a %d-byte file allocated %d bytes", n, len(whole)+headerSize, grew)
		}
	}
}

func TestCheckpointMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadCheckpointMeta(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	want := CheckpointMeta{Epoch: 42, Path: "ckpt-40.snap", BaseEpoch: 40, DeltaEpochs: []int64{41, 42}, MinWALSeq: 3}
	if err := WriteCheckpointMeta(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCheckpointMeta(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// Overwrite with a newer, base-only checkpoint.
	want2 := CheckpointMeta{Epoch: 99, BaseEpoch: 99, Path: "ckpt-99.snap"}
	WriteCheckpointMeta(dir, want2)
	got, _, _ = ReadCheckpointMeta(dir)
	if !reflect.DeepEqual(got, want2) {
		t.Fatalf("got %+v, want %+v", got, want2)
	}
	// A truncated file is corrupt, not a shorter checkpoint.
	data, _ := os.ReadFile(filepath.Join(dir, "CHECKPOINT"))
	os.WriteFile(filepath.Join(dir, "CHECKPOINT"), data[:len(ckptMetaMagic)+10], 0o644)
	if _, _, err := ReadCheckpointMeta(dir); err == nil {
		t.Fatal("truncated meta parsed")
	}
}

func TestParseSegmentPath(t *testing.T) {
	cases := []struct {
		name string
		seq  int
		ok   bool
	}{
		{"wal-000001.log", 1, true},
		{"wal-000042.log", 42, true},
		{"wal-1234567.log", 1234567, true}, // width past %06d must still parse
		{"/some/dir/wal-001000.log", 1000, true},
		{"wal-000001-s00.log", 0, false}, // the retired sharded layout
		{"wal-x.log", 0, false},
		{"wal-000001.snap", 0, false},
		{"ckpt-42.snap", 0, false},
	}
	for _, c := range cases {
		seq, ok := ParseSegmentPath(c.name)
		if seq != c.seq || ok != c.ok {
			t.Errorf("ParseSegmentPath(%q) = (%d,%v), want (%d,%v)", c.name, seq, ok, c.seq, c.ok)
		}
	}
	if seq, ok := ParseSegmentPath(SegmentPath("d", 9)); seq != 9 || !ok {
		t.Fatalf("round trip failed: %d %v", seq, ok)
	}
}
