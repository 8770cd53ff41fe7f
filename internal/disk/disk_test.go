package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"livegraph/internal/iosim"
)

func TestSuperblockRoundTrip(t *testing.T) {
	geo := LogGeometry{Seq: 7, Shards: 1}
	b := EncodeSuperblock(4096, 4<<20, geo)
	if !HasSuperblockMagic(b[:]) {
		t.Fatal("encoded superblock missing magic")
	}
	sb, err := DecodeSuperblock(b[:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sb.Version != superblockVersion || sb.Endian != hostEndian {
		t.Fatalf("version/endian mismatch: %+v", sb)
	}
	if sb.PageSize != 4096 || sb.SegBytes != 4<<20 || sb.Geo != geo {
		t.Fatalf("geometry mismatch: %+v", sb)
	}
	if err := sb.CheckGeometry(7); err != nil {
		t.Fatalf("CheckGeometry: %v", err)
	}
	if err := sb.CheckGeometry(8); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("wrong seq: want ErrBadGeometry, got %v", err)
	}
	// One shard of a sharded segment (the retired layout) is refused even
	// under a matching sequence number.
	for _, geo := range []LogGeometry{{Seq: 7, Shard: 1, Shards: 2}, {Seq: 7, Shard: 0, Shards: 2}, {Seq: 7}} {
		b := EncodeSuperblock(4096, 4<<20, geo)
		sb, err := DecodeSuperblock(b[:])
		if err != nil {
			t.Fatalf("decode %+v: %v", geo, err)
		}
		if err := sb.CheckGeometry(7); !errors.Is(err, ErrBadGeometry) {
			t.Fatalf("%+v: want ErrBadGeometry, got %v", geo, err)
		}
	}
}

func TestSuperblockValidation(t *testing.T) {
	b := EncodeSuperblock(4096, 1<<20, LogGeometry{Seq: 1, Shards: 1})

	// Not a superblock at all.
	if _, err := DecodeSuperblock([]byte("random bytes here, not a header.................................")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	// Magic present but the file was cut short mid-header.
	if _, err := DecodeSuperblock(b[:20]); !errors.Is(err, ErrTornSuperblock) {
		t.Fatalf("short header: want ErrTornSuperblock, got %v", err)
	}
	// Full-length header with a corrupted byte fails the CRC.
	torn := b
	torn[17] ^= 0xFF
	if _, err := DecodeSuperblock(torn[:]); !errors.Is(err, ErrTornSuperblock) {
		t.Fatalf("bad crc: want ErrTornSuperblock, got %v", err)
	}
	// A future version is a hard error even with a valid CRC.
	v2 := EncodeSuperblock(4096, 1<<20, LogGeometry{Seq: 1, Shards: 1})
	v2[8] = superblockVersion + 1
	reCRC(&v2)
	if _, err := DecodeSuperblock(v2[:]); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
	// Foreign endianness is a hard error.
	fe := EncodeSuperblock(4096, 1<<20, LogGeometry{Seq: 1, Shards: 1})
	fe[10] = 3 - hostEndian // flips 1<->2
	reCRC(&fe)
	if _, err := DecodeSuperblock(fe[:]); !errors.Is(err, ErrEndianness) {
		t.Fatalf("want ErrEndianness, got %v", err)
	}
}

// reCRC recomputes the trailer CRC after a test mutates header bytes, so the
// decode failure under test is the semantic check, not the checksum.
func reCRC(b *[SuperblockSize]byte) {
	binary.LittleEndian.PutUint32(b[60:64], crc32.ChecksumIEEE(b[0:60]))
}

// TestSyncUnsupportedMatchesWrappedErrno: (*os.File).Sync reports a
// refused directory fsync as a *PathError around the errno ("sync /dir:
// invalid argument"), and that is the error SyncDir must swallow. Anything
// else — an I/O error above all — must still fail the swap.
func TestSyncUnsupportedMatchesWrappedErrno(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EINVAL, syscall.ENOTSUP} {
		err := &os.PathError{Op: "sync", Path: "/mnt/fuse/data", Err: errno}
		if !isSyncUnsupported(err) {
			t.Errorf("%v not recognised as an unsupported directory fsync", err)
		}
		if !isSyncUnsupported(fmt.Errorf("wrapped again: %w", err)) {
			t.Errorf("%v not recognised through a second wrapper", err)
		}
	}
	if !isSyncUnsupported(&os.PathError{Op: "sync", Path: "/ro", Err: syscall.EACCES}) {
		t.Error("permission error no longer swallowed")
	}
	for _, err := range []error{
		&os.PathError{Op: "sync", Path: "/data", Err: syscall.EIO},
		&os.PathError{Op: "sync", Path: "/data", Err: syscall.ENOSPC},
		errors.New("invalid argument"), // only the errno counts, not a message that reads like it
	} {
		if isSyncUnsupported(err) {
			t.Errorf("%v swallowed as an unsupported directory fsync", err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "CHECKPOINT")
	if err := WriteFileAtomic(path, []byte("epoch 1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("epoch 2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "epoch 2" {
		t.Fatalf("got %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestAtomicFileCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	var charged int64
	a, err := newAtomicFile(path, func(n int64) { charged = n })
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 1234)
	if _, err := a.Write(payload); err != nil {
		t.Fatal(err)
	}
	// Final path must not exist before Commit.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final path exists before Commit: %v", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if charged != int64(len(payload)) {
		t.Fatalf("charge hook saw %d bytes, want %d", charged, len(payload))
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, payload) {
		t.Fatalf("content mismatch: %d bytes", len(got))
	}

	// Abort leaves no trace.
	b, err := newAtomicFile(filepath.Join(dir, "gone"), nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Write([]byte("discard"))
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone.tmp")); !os.IsNotExist(err) {
		t.Fatal("abort left temp file")
	}
}

func TestRealLogWriteSyncReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-000001.log")
	geo := LogGeometry{Seq: 1, Shards: 1}
	// Tiny segment so appends exercise the growth/remap path.
	b := NewRealOpts(RealOptions{SegBytes: SuperblockSize})
	l, err := b.OpenLog(path, geo)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 3*os.Getpagesize())
	if n, err := l.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if got, err := l.Accept(42); err != nil || got != 42 {
		t.Fatalf("real Accept must pass through: n=%d err=%v", got, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sync again with nothing new appended must be a no-op.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := DecodeSuperblock(data)
	if err != nil {
		t.Fatalf("reopened superblock: %v", err)
	}
	if err := sb.CheckGeometry(1); err != nil {
		t.Fatal(err)
	}
	body := data[SuperblockSize:]
	if !bytes.Equal(body, payload) {
		t.Fatalf("body mismatch: %d bytes vs %d written", len(body), len(payload))
	}
}

func TestRealLogCrashLeavesZeroTail(t *testing.T) {
	// Without a clean Close, the preallocated file keeps its zero tail —
	// the shape crash recovery must parse as end-of-log.
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-000002.log")
	b := NewRealOpts(RealOptions{SegBytes: 1 << 16})
	l, err := b.OpenLog(path, LogGeometry{Seq: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write([]byte("durable record bytes")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: drop the handle without Close's tail trim.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 1<<16 {
		t.Fatalf("file was trimmed without Close: %d bytes", len(data))
	}
	tail := data[SuperblockSize+len("durable record bytes"):]
	for i, c := range tail {
		if c != 0 {
			t.Fatalf("tail byte %d not zero: %#x", i, c)
		}
	}
	l.Close()
}

func TestSimBackendAcceptAndCharge(t *testing.T) {
	dir := t.TempDir()
	dev := iosim.NewDevice(iosim.Null)
	b := NewSim(dev)
	l, err := b.OpenLog(filepath.Join(dir, "wal-000001.log"), LogGeometry{Seq: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if n, err := l.Accept(5); err != nil || n != 5 {
		t.Fatalf("accept before crash point: n=%d err=%v", n, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := dev.Stats(); st.BytesWritten == 0 {
		t.Fatal("sim backend did not charge the device")
	}
	// Arm a crash point on the device; Accept must clip.
	dev.CrashAfter(2)
	if n, err := l.Accept(100); err == nil || n > 2 {
		t.Fatalf("accept past crash point: n=%d err=%v", n, err)
	}
}

func TestSimBackendNilDevice(t *testing.T) {
	b := NewSim(nil)
	if b.Name() != "iosim" {
		t.Fatalf("name: %s", b.Name())
	}
	dir := t.TempDir()
	a, err := b.CreateAtomic(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("ok"))
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}
