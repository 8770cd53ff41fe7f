// Package wal implements LiveGraph's durability layer (paper §5 "persist
// phase" and §6 "Recovery"): one append-only write-ahead log with group
// commit — one append and one fsync per commit group — plus the
// checkpoint bookkeeping that lets the log be pruned.
//
// The log is a sequence of segment files, wal-<seq>.log; the checkpointer
// rotates to a fresh segment at a quiescent point and prunes the ones its
// snapshot supersedes. Each segment writes through a disk.Backend (the
// storage seam) into an mmap'd, superblock-headed segment file with genuine
// msync/fsync durability; the device simulator, when one is wrapped around
// it, only adds timing and a crash budget. Replay validates the superblock
// before reading a frame: a segment without one is refused by name.
//
// Frame format (little endian), one frame per commit group:
//
//	[8B epoch][4B body len][4B crc][body]
//
// The body is the group's records, a run of [4B record len][payload]
// sub-records; crc is one crc32c (Castagnoli, hardware-accelerated) over
// the epoch, the length and the body — every other byte of the frame. A
// group is exactly one frame, so the frame's checksum is the group's
// atomicity: a tear anywhere in the frame fails verification and the
// whole group is rolled back, never half-applied. Replay reads frames
// until the first one that does not verify — the standard
// crash-consistency contract for a checksummed WAL — and nothing after
// that point is delivered.
//
// Every byte recovery or a replica trusts is such a frame, read by
// ReadFrame: the log, the replication stream (the log's frames, shipped
// unchanged), checkpoint files and the CHECKPOINT pointer. An empty frame
// is a stream heartbeat or a checkpoint's end marker, never a log group.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livegraph/internal/disk"
	"livegraph/internal/obs"
)

const headerSize = 16

// recHdrSize prefixes each sub-record inside a frame body.
const recHdrSize = 4

// MaxGroupBytes is the largest frame body the log holds. The writer
// refuses a bigger group before accepting a byte of it, and the reader
// treats a larger length field as a torn header — one limit for both, so
// no group can be acknowledged that replay would later discard.
const MaxGroupBytes = 1 << 30

// CheckpointFrameBytes is where a checkpoint writer cuts a frame: once its
// body passes it, the next records (a hub's ops included) go to the next.
const CheckpointFrameBytes = 1 << 20

// castagnoli is the crc32c polynomial table; crc32.Update with it uses the
// dedicated CRC32 instruction on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is one segment of the write-ahead log: an append-only file taking
// one frame per commit group. AppendGroup is for a single committer
// goroutine; the accessors may be called concurrently with it.
type Log struct {
	mu   sync.Mutex
	lf   disk.LogFile
	path string

	appended int64 // bytes appended since open

	durable atomic.Int64 // newest epoch whose group is fsynced
	failed  atomic.Bool  // sticky: a group write failed; see ErrLogFailed

	// Optional latency instruments for the two phases of AppendGroup
	// (write vs fsync barrier), attached by Instrument. Nil histograms
	// record nothing.
	appendHist *obs.Histogram
	syncHist   *obs.Histogram
}

// ErrLogFailed is returned by AppendGroup after any group write has
// failed. The failure may have left a torn frame mid-file; a later group
// appended after the tear would be silently discarded by replay (which
// stops at the first frame that does not verify) even though its commit
// was acknowledged. Refusing all further appends makes the log's durable
// prefix exactly the acknowledged commits; reopen and recover to resume.
var ErrLogFailed = errors.New("wal: log failed; reopen and recover")

// ErrGroupTooLarge is returned by AppendGroup for a group whose frame body
// would exceed MaxGroupBytes. Nothing was written, so the log stays
// usable: only that group fails.
var ErrGroupTooLarge = errors.New("wal: commit group exceeds the frame size limit")

// SegmentPath returns the file path of segment seq of the log in dir.
func SegmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", seq))
}

// ParseSegmentPath extracts seq from a segment file name, reporting
// ok=false for names not produced by SegmentPath. Parsed manually rather
// than with Sscanf: the %06d in SegmentPath is a minimum width, so
// sequence numbers past 999999 produce wider names that a width-limited
// scan would silently reject — and a silently skipped WAL file is silent
// data loss.
func ParseSegmentPath(name string) (seq int, ok bool) {
	rest, found := strings.CutPrefix(filepath.Base(name), "wal-")
	if !found {
		return 0, false
	}
	seqStr, found := strings.CutSuffix(rest, ".log")
	if !found {
		return 0, false
	}
	seq64, err := strconv.ParseUint(seqStr, 10, 31)
	if err != nil {
		return 0, false
	}
	return int(seq64), true
}

// Open creates segment seq of the log in dir through backend. The
// directory is fsynced after the file is created: a commit acknowledged
// into a file whose dirent is not durable would vanish with the dirent on
// crash.
func Open(dir string, seq int, backend disk.Backend) (*Log, error) {
	path := SegmentPath(dir, seq)
	lf, err := backend.OpenLog(path, disk.SegmentGeometry(seq))
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if err := backend.SyncDir(dir); err != nil {
		_ = lf.Close() // the segment is unusable either way: the dir-fsync error wins
		return nil, fmt.Errorf("wal: fsync dir after segment create: %w", err)
	}
	return &Log{lf: lf, path: path}, nil
}

// Instrument attaches latency histograms for AppendGroup's write phase
// and fsync barrier. Either may be nil. Call before the log is shared
// with a committer — it is not synchronised against in-flight appends.
func (l *Log) Instrument(appendHist, syncHist *obs.Histogram) {
	l.appendHist, l.syncHist = appendHist, syncHist
}

// DurableEpoch returns the newest epoch whose group is durable. The
// committer publishes GRE only after the group's epoch is durable, so
// GRE <= DurableEpoch holds at all times on a durable graph.
func (l *Log) DurableEpoch() int64 { return l.durable.Load() }

// SetDurableEpoch initialises the durability watermark (recovery sets it
// to the replayed epoch before the committer starts).
func (l *Log) SetDurableEpoch(e int64) { l.durable.Store(e) }

// AppendedBytes reports bytes appended since Open (for write-amplification
// profiling, paper §7.2).
func (l *Log) AppendedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// AppendGroup persists one commit group: recs, all stamped with epoch, are
// framed as a single frame under one crc32c, written, and made durable by
// one Sync barrier (the group commit step); only then does DurableEpoch
// advance. The backend charges its device model, if any. An empty group
// is vacuously durable.
//
// On error (device crash, I/O failure) the group must be treated as not
// committed, and every later AppendGroup returns ErrLogFailed. If the
// backend's device has an armed crash point (iosim.Device.CrashAfter),
// Accept admits only a prefix of the frame — a genuinely torn write lands
// in the file — and the wrapped iosim.ErrCrashed is returned.
func (l *Log) AppendGroup(epoch int64, recs [][]byte) error {
	if l.failed.Load() {
		return ErrLogFailed
	}
	bodyLen := 0
	for _, rec := range recs {
		bodyLen += recHdrSize + len(rec)
		if bodyLen > MaxGroupBytes {
			return fmt.Errorf("%w: epoch %d body exceeds %d bytes", ErrGroupTooLarge, epoch, MaxGroupBytes)
		}
	}
	if len(recs) == 0 {
		l.durable.Store(epoch)
		return nil
	}
	timed := l.appendHist != nil || l.syncHist != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	needSync, err := l.writeFrame(epoch, recs, bodyLen)
	if timed {
		l.appendHist.Record(time.Since(t0))
	}
	if needSync {
		// Sync even on a device-crash error: the clipped prefix must land
		// in the file so the tear is what recovery sees.
		if timed {
			t0 = time.Now()
		}
		if serr := l.sync(); serr != nil && err == nil {
			err = serr
		}
		if timed {
			l.syncHist.Record(time.Since(t0))
		}
	}
	if err != nil {
		l.failed.Store(true)
		return err
	}
	l.durable.Store(epoch)
	return nil
}

// writeFrame frames recs and writes them without syncing. needSync reports
// that bytes landed in the file and a sync is required even when err is
// non-nil (a device crash clips the frame; the tear must become durable).
// A plain write failure returns needSync=false: nothing further is
// acknowledged from this log.
func (l *Log) writeFrame(epoch int64, recs [][]byte, bodyLen int) (needSync bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	accepted, devErr := l.lf.Accept(headerSize + bodyLen)
	if devErr != nil {
		devErr = fmt.Errorf("wal: append %s: %w", l.path, devErr)
	}
	if accepted == 0 {
		return false, devErr
	}
	// One checksum for the whole group, computed incrementally so records
	// stream straight into the backend's writer — no group-sized staging
	// copy on the persist hot path.
	hdr := frameHeader(epoch, recs, bodyLen)
	var lenBuf [recHdrSize]byte
	// `remaining` clips the part that crosses an injected crash point, so
	// the file carries exactly the accepted prefix (a genuine tear).
	remaining := accepted
	write := func(part []byte) (done bool, err error) {
		if len(part) > remaining {
			part = part[:remaining]
		}
		if _, werr := l.lf.Write(part); werr != nil {
			return false, fmt.Errorf("wal: append: %w", werr)
		}
		remaining -= len(part)
		return remaining == 0, nil
	}
	done, werr := write(hdr[:])
	for _, rec := range recs {
		if done || werr != nil {
			break
		}
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(rec)))
		if done, werr = write(lenBuf[:]); done || werr != nil {
			break
		}
		done, werr = write(rec)
	}
	if werr != nil {
		return false, werr
	}
	l.appended += int64(accepted)
	return true, devErr
}

// sync flushes written frames to stable storage.
func (l *Log) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.lf.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Close closes the segment file (trimming its preallocated tail).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lf.Close()
}

// Reading --------------------------------------------------------------------

// frameHeader is the one header and checksum rule: epoch, body length and
// one crc32c over both and the body of recs, whose size is bodyLen.
func frameHeader(epoch int64, recs [][]byte, bodyLen int) [headerSize]byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(epoch))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(bodyLen))
	var lenBuf [recHdrSize]byte
	crc := crc32.Update(0, castagnoli, hdr[0:12])
	for _, rec := range recs {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(rec)))
		crc = crc32.Update(crc, castagnoli, lenBuf[:])
		crc = crc32.Update(crc, castagnoli, rec)
	}
	binary.LittleEndian.PutUint32(hdr[12:16], crc)
	return hdr
}

// AppendFrame appends to dst the bytes Log.AppendGroup writes for recs
// under epoch; no records make an empty frame. The caller keeps the body
// within MaxGroupBytes.
func AppendFrame(dst []byte, epoch int64, recs [][]byte) []byte {
	bodyLen := len(recs) * recHdrSize
	for _, rec := range recs {
		bodyLen += len(rec)
	}
	hdr := frameHeader(epoch, recs, bodyLen)
	dst = append(slices.Grow(dst, headerSize+bodyLen), hdr[:]...)
	for _, rec := range recs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec)))
		dst = append(dst, rec...)
	}
	return dst
}

// Frame is one verified frame. Recs alias Raw, the frame's bytes as read.
type Frame struct {
	Epoch int64
	Recs  [][]byte
	Raw   []byte
}

// ErrFrameDamaged is returned (wrapped) by ReadFrame for a header followed
// by a body that is short, implausible or fails its checksum.
var ErrFrameDamaged = errors.New("wal: frame does not verify")

// Stream is the ReadFrame limit of a source with no size to bound a frame
// by (no file offset arithmetic yields it). Its body is read into
// streamChunk bytes first, then grows.
const (
	Stream      = math.MinInt64
	streamChunk = 64 << 10
)

// ReadFrame reads one frame from r, which holds limit bytes (a file's size
// less the offset) or is a Stream. A garbage length field costs nothing
// at a torn file tail and only the bytes the peer sent on a Stream.
//
// io.EOF means no frame: r ended before a whole header, or the header is
// all zero — a segment's zero-filled preallocated tail (real epochs start
// at 1; an empty body's crc is not zero). Other header read errors pass
// through. ErrFrameDamaged (wrapped) means a body that is short,
// implausible or fails its checksum; f.Epoch then holds the header's
// epoch, unverified, for the tailer's damage check.
func ReadFrame(r io.Reader, limit int64) (f Frame, err error) {
	var hdr [headerSize]byte
	if limit != Stream && limit < headerSize {
		return Frame{}, io.EOF
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = io.EOF
		}
		return Frame{}, err
	}
	epoch := int64(binary.LittleEndian.Uint64(hdr[0:8]))
	n := int(binary.LittleEndian.Uint32(hdr[8:12]))
	crc := binary.LittleEndian.Uint32(hdr[12:16])
	if epoch == 0 && n == 0 && crc == 0 {
		return Frame{}, io.EOF
	}
	damaged := func(why string) (Frame, error) {
		return Frame{Epoch: epoch}, fmt.Errorf("%w: epoch %d: %s", ErrFrameDamaged, epoch, why)
	}
	if n > MaxGroupBytes || (limit != Stream && int64(n) > limit-headerSize) {
		return damaged("body length past the file or the limit") // torn
	}
	first := n // MinRead spare keeps the buffer from growing at the end
	if limit == Stream {
		first = min(n, streamChunk)
	}
	buf := bytes.NewBuffer(append(make([]byte, 0, headerSize+first+bytes.MinRead), hdr[:]...))
	if _, err := io.CopyN(buf, r, int64(n)); err != nil {
		return damaged("short body")
	}
	raw := buf.Bytes()
	if crc32.Update(crc32.Checksum(hdr[0:12], castagnoli), castagnoli, raw[headerSize:]) != crc {
		return damaged("checksum") // corrupt anywhere in the frame: whole group torn
	}
	f = Frame{Epoch: epoch, Raw: raw}
	for rest := raw[headerSize:]; len(rest) > 0; {
		if len(rest) < recHdrSize {
			return damaged("record header")
		}
		rl := uint64(binary.LittleEndian.Uint32(rest))
		if rest = rest[recHdrSize:]; rl > uint64(len(rest)) {
			return damaged("record length")
		}
		f.Recs = append(f.Recs, rest[:rl:rl])
		rest = rest[rl:]
	}
	return f, nil
}

// segmentFile is a segment opened for reading, positioned past its
// superblock.
type segmentFile struct {
	f    *os.File
	r    *bufio.Reader
	off  int64 // file offset of r's position
	size int64
}

// openSegment opens path for frame reading from the start (the superblock
// is validated and skipped). A nil segmentFile with a nil error
// means the file holds no frames to read yet: it does not exist, or its
// creator crashed (or is still running) before the superblock was durable
// — no group was ever acknowledged from such a file.
func openSegment(path string) (*segmentFile, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	sf := &segmentFile{f: f, r: bufio.NewReaderSize(f, 1<<18)}
	if ready, err := sf.rewind(); err != nil || !ready {
		sf.close()
		return nil, err
	}
	return sf, nil
}

// rewind repositions the reader at sf.off and refreshes the file size, so
// frames appended since the last read become visible.
func (sf *segmentFile) rewind() (ready bool, err error) {
	st, err := sf.f.Stat()
	if err != nil {
		return false, fmt.Errorf("wal: stat segment: %w", err)
	}
	sf.size = st.Size()
	if _, err := sf.f.Seek(sf.off, io.SeekStart); err != nil {
		return false, fmt.Errorf("wal: seek segment: %w", err)
	}
	sf.r.Reset(sf.f)
	if sf.off > 0 {
		return true, nil
	}
	empty, err := skipSuperblock(sf.r, sf.f.Name())
	if err != nil || empty {
		return false, err
	}
	sf.off = disk.SuperblockSize
	return true, nil
}

// next reads the frame at the current offset, advancing past it only when
// it verifies.
func (sf *segmentFile) next() (Frame, error) {
	f, err := ReadFrame(sf.r, sf.size-sf.off)
	if err == nil {
		sf.off += int64(len(f.Raw))
	}
	return f, err
}

func (sf *segmentFile) close() {
	// Read-only handle: nothing was written, so a Close failure cannot
	// affect durability.
	_ = sf.f.Close()
}

// Replay reads the segment file at path, invoking fn for each record of
// every verifying group whose epoch is > afterEpoch, in log order. The
// first frame that does not verify — a torn or corrupt tail — ends replay
// silently (that is the crash contract): that group and everything after
// it is discarded. Any fn error aborts replay. It returns the newest epoch
// read (afterEpoch if none was newer).
func Replay(path string, afterEpoch int64, fn func(epoch int64, rec []byte) error) (int64, error) {
	durable := afterEpoch
	sf, err := openSegment(path)
	if err != nil || sf == nil {
		return durable, err
	}
	defer sf.close()
	for {
		f, err := sf.next()
		if err != nil {
			return durable, nil
		}
		if f.Epoch <= afterEpoch {
			continue
		}
		for _, rec := range f.Recs {
			if err := fn(f.Epoch, rec); err != nil {
				return durable, err
			}
		}
		durable = f.Epoch
	}
}

// skipSuperblock positions r past the segment's superblock. empty=true
// means the segment must be treated as having no frames: the creating
// process crashed (or is still running) before the superblock was durable
// — an empty file, an all-zero head, a torn header — and no group was ever
// acknowledged from such a file. Every other head is a hard error: one
// without the magic (a headerless file is refused, never replayed or
// skipped) and an incompatible superblock (foreign endianness, unknown
// version, geometry not matching the file name) — misparsing either as
// frames would be silent corruption.
func skipSuperblock(r *bufio.Reader, path string) (empty bool, err error) {
	head, err := r.Peek(disk.SuperblockSize)
	if err != nil && !errors.Is(err, io.EOF) {
		return false, fmt.Errorf("wal: segment %s: %w", path, err)
	}
	sb, err := disk.DecodeSuperblock(head)
	if errors.Is(err, disk.ErrTornSuperblock) {
		return true, nil
	}
	if err == nil {
		if seq, ok := ParseSegmentPath(path); ok {
			err = sb.CheckGeometry(seq)
		}
	}
	if err == nil {
		_, err = r.Discard(disk.SuperblockSize)
	}
	if err != nil {
		return false, fmt.Errorf("wal: segment %s: %w", path, err)
	}
	return false, nil
}

// Checkpoint metadata --------------------------------------------------------

// CheckpointMeta records which epoch the checkpoint state captures: WAL
// groups at or below Epoch() are superseded by the checkpoint and may be
// pruned. A checkpoint is a base snapshot (capturing BaseEpoch, 0 for no
// checkpoint) plus an ordered chain of deltas (DeltaEpochs; none for a
// full checkpoint) that recovery applies in order.
//
// MinWALSeq is the first live WAL segment sequence: every segment below it
// is fully superseded by the checkpoint. It is the recovery-side guard for
// the prune window — deleting superseded segments is not atomic, and a
// crash mid-prune leaves files that must be skipped (and may be cleaned
// up), not replayed.
type CheckpointMeta struct {
	BaseEpoch   int64
	DeltaEpochs []int64
	MinWALSeq   int
}

// Epoch returns the newest epoch covered: the last delta's, or BaseEpoch.
func (m CheckpointMeta) Epoch() int64 {
	if n := len(m.DeltaEpochs); n > 0 {
		return m.DeltaEpochs[n-1]
	}
	return m.BaseEpoch
}

// ckptMetaMagic heads the CHECKPOINT file; one frame stamped with the
// checkpoint's epoch follows it, holding one record: [8B BaseEpoch]
// [4B MinWALSeq] and [8B] per delta epoch. A file that does not open with
// the magic was written by an incompatible build and is refused by name.
var ckptMetaMagic = []byte("LGCKMET4")

// ErrCheckpointFormat is returned (wrapped) by ReadCheckpointMeta for a
// CHECKPOINT file that does not carry the current magic.
var ErrCheckpointFormat = errors.New("wal: unrecognized CHECKPOINT format (incompatible build?)")

// WriteCheckpointMeta durably records the checkpoint pointer file next to
// the WAL under the crash-atomic swap protocol (write temp, fsync it,
// rename over CHECKPOINT, fsync the directory): a durable CHECKPOINT
// dirent must never name non-durable bytes, or recovery would trust a
// pointer whose contents a crash discarded.
func WriteCheckpointMeta(dir string, meta CheckpointMeta) error {
	return disk.WriteFileAtomic(filepath.Join(dir, "CHECKPOINT"), encodeCheckpointMeta(meta))
}

func encodeCheckpointMeta(meta CheckpointMeta) []byte {
	rec := binary.LittleEndian.AppendUint64(nil, uint64(meta.BaseEpoch))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(meta.MinWALSeq))
	for _, e := range meta.DeltaEpochs {
		rec = binary.LittleEndian.AppendUint64(rec, uint64(e))
	}
	return AppendFrame(append([]byte(nil), ckptMetaMagic...), meta.Epoch(), [][]byte{rec})
}

// ReadCheckpointMeta loads the checkpoint pointer, or ok=false if none.
func ReadCheckpointMeta(dir string) (meta CheckpointMeta, ok bool, err error) {
	path := filepath.Join(dir, "CHECKPOINT")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CheckpointMeta{}, false, nil
	}
	if err != nil {
		return CheckpointMeta{}, false, err
	}
	meta, err = decodeCheckpointMeta(data)
	if err != nil {
		return CheckpointMeta{}, false, fmt.Errorf("%s: %w", path, err)
	}
	return meta, true, nil
}

// decodeCheckpointMeta parses a CHECKPOINT file: the magic, then exactly
// one verifying frame of one well-formed record, stamped with the epoch
// the record implies.
func decodeCheckpointMeta(data []byte) (CheckpointMeta, error) {
	rest, found := bytes.CutPrefix(data, ckptMetaMagic)
	if !found {
		if bytes.HasPrefix(data, []byte("LGCKMET")) {
			return CheckpointMeta{}, fmt.Errorf("%w: %.8q is an older format, this build reads %q", ErrCheckpointFormat, data, ckptMetaMagic)
		}
		return CheckpointMeta{}, ErrCheckpointFormat
	}
	f, err := ReadFrame(bytes.NewReader(rest), int64(len(rest)))
	if err != nil || len(f.Raw) != len(rest) || len(f.Recs) != 1 || len(f.Recs[0]) < 12 || (len(f.Recs[0])-12)%8 != 0 {
		return CheckpointMeta{}, fmt.Errorf("wal: checkpoint meta corrupt (%v)", err)
	}
	rec := f.Recs[0]
	meta := CheckpointMeta{BaseEpoch: int64(binary.LittleEndian.Uint64(rec)), MinWALSeq: int(binary.LittleEndian.Uint32(rec[8:]))}
	for rec = rec[12:]; len(rec) > 0; rec = rec[8:] {
		meta.DeltaEpochs = append(meta.DeltaEpochs, int64(binary.LittleEndian.Uint64(rec)))
	}
	if meta.Epoch() != f.Epoch {
		return CheckpointMeta{}, fmt.Errorf("wal: checkpoint meta corrupt (frame epoch %d, record says %d)", f.Epoch, meta.Epoch())
	}
	return meta, nil
}
