// Package wal implements LiveGraph's durability layer (paper §5 "persist
// phase" and §6 "Recovery"): one append-only write-ahead log with group
// commit — one append and one fsync per commit group — plus the
// checkpoint bookkeeping that lets the log be pruned.
//
// The log is a sequence of segment files, wal-<seq>.log; the checkpointer
// rotates to a fresh segment at a quiescent point and prunes the ones its
// snapshot supersedes. Each segment writes through a disk.Backend (the
// storage seam): the iosim backend keeps the paper's Optane/NAND device
// models and crash injection, the real backend appends into mmap'd,
// superblock-headed segment files with genuine msync/fsync durability.
// Replay sniffs the superblock, so both recover through the same code.
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
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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

// Open opens (creating if necessary) segment seq of the log in dir through
// backend (nil selects the iosim backend on an instantaneous device). The
// directory is fsynced after the file is created: a commit acknowledged
// into a file whose dirent is not durable would vanish with the dirent on
// crash.
func Open(dir string, seq int, backend disk.Backend) (*Log, error) {
	if backend == nil {
		backend = disk.NewSim(nil)
	}
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

// Close closes the segment file (trimming any preallocated tail on the
// real backend).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lf.Close()
}

// Reading --------------------------------------------------------------------

// frameState classifies what readFrame found at the reader's position.
type frameState int

const (
	frameOK  frameState = iota // a verifying frame
	frameEnd                   // nothing there: EOF, a short header, or the zero-filled preallocated tail
	frameBad                   // a header followed by a body that is short, implausible or fails its checksum
)

// readFrame reads one frame from r, which has `limit` bytes left before
// the end of the file, returning its records and the byte length consumed
// (header + body; tailers advance file offsets by it). The body is only
// allocated once the header's length is known to fit inside limit, so a
// garbage length field at a torn tail costs nothing. On frameBad the
// header's epoch is returned unverified, for the tailer's damage check.
//
// An all-zero header is the end of the log, not a frame: the real backend
// preallocates segment files, so after a crash the tail past the last
// durable frame is zero-filled pages — and a zero header would otherwise
// read as the start of a frame forever. Real epochs start at 1, so no
// live frame has a zero header. The writer never frames an empty group,
// so a zero body length under a non-zero header is torn too.
func readFrame(r io.Reader, limit int64) (epoch int64, recs [][]byte, consumed int, st frameState) {
	var hdr [headerSize]byte
	if limit < headerSize {
		return 0, nil, 0, frameEnd
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, frameEnd
	}
	epoch = int64(binary.LittleEndian.Uint64(hdr[0:8]))
	n := binary.LittleEndian.Uint32(hdr[8:12])
	crc := binary.LittleEndian.Uint32(hdr[12:16])
	if epoch == 0 && n == 0 && crc == 0 {
		return 0, nil, 0, frameEnd
	}
	if n == 0 || n > MaxGroupBytes || int64(n) > limit-headerSize {
		return epoch, nil, 0, frameBad // implausible or longer than the file: torn
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return epoch, nil, 0, frameBad
	}
	if crc32.Update(crc32.Checksum(hdr[0:12], castagnoli), castagnoli, body) != crc {
		return epoch, nil, 0, frameBad // corrupt anywhere in the frame: whole group torn
	}
	for rest := body; len(rest) > 0; {
		if len(rest) < recHdrSize {
			return epoch, nil, 0, frameBad
		}
		rl := binary.LittleEndian.Uint32(rest[:recHdrSize])
		rest = rest[recHdrSize:]
		if uint64(rl) > uint64(len(rest)) {
			return epoch, nil, 0, frameBad
		}
		recs = append(recs, rest[:rl:rl])
		rest = rest[rl:]
	}
	return epoch, recs, headerSize + int(n), frameOK
}

// segmentFile is a segment opened for reading, positioned past its
// superblock (if it has one).
type segmentFile struct {
	f    *os.File
	r    *bufio.Reader
	off  int64 // file offset of r's position
	size int64
}

// openSegment opens path for frame reading from the start (the superblock,
// if any, is validated and skipped). A nil segmentFile with a nil error
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
	skipped, empty, err := skipSuperblock(sf.r, sf.f.Name())
	if err != nil || empty {
		return false, err
	}
	sf.off = int64(skipped)
	return true, nil
}

// next reads the frame at the current offset, advancing past it only when
// it verifies.
func (sf *segmentFile) next() (epoch int64, recs [][]byte, st frameState) {
	epoch, recs, consumed, st := readFrame(sf.r, sf.size-sf.off)
	sf.off += int64(consumed)
	return epoch, recs, st
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
		epoch, recs, st := sf.next()
		if st != frameOK {
			return durable, nil
		}
		if epoch <= afterEpoch {
			continue
		}
		for _, rec := range recs {
			if err := fn(epoch, rec); err != nil {
				return durable, err
			}
		}
		durable = epoch
	}
}

// skipSuperblock positions r past a real-backend superblock, if the file
// has one, reporting how many bytes it consumed. empty=true means the
// segment must be treated as having no frames: the creating process
// crashed before the superblock was durable (no group was ever
// acknowledged from such a file). Headerless iosim-format files pass
// through untouched (skipped=0). Incompatible superblocks (foreign
// endianness, unknown version, geometry not matching the file name) are
// hard errors — misparsing them as frames would be silent corruption.
func skipSuperblock(r *bufio.Reader, path string) (skipped int, empty bool, err error) {
	head, peekErr := r.Peek(disk.SuperblockSize)
	if !disk.HasSuperblockMagic(head) {
		return 0, false, nil // headerless iosim segment (or empty file)
	}
	if peekErr != nil && len(head) < disk.SuperblockSize {
		return 0, true, nil // magic but cut short: torn at creation
	}
	sb, err := disk.DecodeSuperblock(head)
	if errors.Is(err, disk.ErrTornSuperblock) {
		return 0, true, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("wal: segment %s: %w", path, err)
	}
	if seq, ok := ParseSegmentPath(path); ok {
		if err := sb.CheckGeometry(seq); err != nil {
			return 0, false, fmt.Errorf("wal: segment %s: %w", path, err)
		}
	}
	if _, err := r.Discard(disk.SuperblockSize); err != nil {
		return 0, false, fmt.Errorf("wal: segment %s: %w", path, err)
	}
	return disk.SuperblockSize, false, nil
}

// Checkpoint metadata --------------------------------------------------------

// CheckpointMeta records which epoch the checkpoint state captures: WAL
// groups at or below Epoch are superseded by the checkpoint and may be
// pruned.
//
// A checkpoint is a base snapshot (Path, capturing BaseEpoch) plus an
// ordered chain of delta files (DeltaEpochs; each at "ckpt-<E>.delta"
// beside the base). Recovery loads the base and applies the deltas in
// order; Epoch is the newest epoch covered — the last delta's, or
// BaseEpoch when the chain is empty. A full (non-incremental) checkpoint
// is simply an empty chain with BaseEpoch == Epoch.
//
// MinWALSeq is the first live WAL segment sequence: every segment below it
// is fully superseded by the checkpoint. It is the recovery-side guard for
// the prune window — deleting superseded segments is not atomic, and a
// crash mid-prune leaves files that must be skipped (and may be cleaned
// up), not replayed.
type CheckpointMeta struct {
	Epoch       int64
	Path        string
	BaseEpoch   int64
	DeltaEpochs []int64
	MinWALSeq   int
}

// ckptMetaMagic heads the CHECKPOINT file. A file that does not open with
// it was written by an incompatible build and is refused by name.
var ckptMetaMagic = []byte("LGCKMET3")

// ErrCheckpointFormat is returned (wrapped) by ReadCheckpointMeta for a
// CHECKPOINT file that does not carry the current magic.
var ErrCheckpointFormat = errors.New("wal: unrecognized CHECKPOINT format (incompatible build?)")

// WriteCheckpointMeta durably records the checkpoint pointer file next to
// the WAL under the crash-atomic swap protocol (write temp, fsync it,
// rename over CHECKPOINT, fsync the directory): a durable CHECKPOINT
// dirent must never name non-durable bytes, or recovery would trust a
// pointer whose contents a crash discarded.
func WriteCheckpointMeta(dir string, meta CheckpointMeta) error {
	data := append([]byte(nil), ckptMetaMagic...)
	data = binary.LittleEndian.AppendUint64(data, uint64(meta.Epoch))
	data = binary.LittleEndian.AppendUint64(data, uint64(meta.BaseEpoch))
	data = binary.LittleEndian.AppendUint32(data, uint32(meta.MinWALSeq))
	data = binary.LittleEndian.AppendUint32(data, uint32(len(meta.DeltaEpochs)))
	for _, e := range meta.DeltaEpochs {
		data = binary.LittleEndian.AppendUint64(data, uint64(e))
	}
	data = append(data, []byte(meta.Path)...)
	return disk.WriteFileAtomic(filepath.Join(dir, "CHECKPOINT"), data)
}

// ReadCheckpointMeta loads the checkpoint pointer, or ok=false if none.
func ReadCheckpointMeta(dir string) (meta CheckpointMeta, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, "CHECKPOINT"))
	if os.IsNotExist(err) {
		return CheckpointMeta{}, false, nil
	}
	if err != nil {
		return CheckpointMeta{}, false, err
	}
	data, found := bytes.CutPrefix(data, ckptMetaMagic)
	if !found {
		return CheckpointMeta{}, false, fmt.Errorf("%w: %s", ErrCheckpointFormat, filepath.Join(dir, "CHECKPOINT"))
	}
	corrupt := func() (CheckpointMeta, bool, error) {
		return CheckpointMeta{}, false, fmt.Errorf("wal: checkpoint meta corrupt")
	}
	if len(data) < 24 {
		return corrupt()
	}
	meta.Epoch = int64(binary.LittleEndian.Uint64(data[:8]))
	meta.BaseEpoch = int64(binary.LittleEndian.Uint64(data[8:16]))
	meta.MinWALSeq = int(binary.LittleEndian.Uint32(data[16:20]))
	deltas := binary.LittleEndian.Uint32(data[20:24])
	data = data[24:]
	if deltas > 1<<20 || len(data) < int(deltas)*8 {
		return corrupt()
	}
	if deltas > 0 {
		meta.DeltaEpochs = make([]int64, deltas)
		for i := range meta.DeltaEpochs {
			meta.DeltaEpochs[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}
	}
	meta.Path = string(data[deltas*8:])
	return meta, true, nil
}
