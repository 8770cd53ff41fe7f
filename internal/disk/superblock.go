package disk

// The superblock is the real backend's segment file header (the fz mmap
// superblock idiom): a fixed 64-byte block at offset 0 carrying magic,
// endianness, format version and geometry, CRC-protected, msync'd before
// the first record is appended. Opening a segment for replay validates it
// before trusting a single byte after it — a file from an incompatible
// build, a foreign-endian host, or a renamed segment is rejected with a
// named error instead of being silently misparsed as log records.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"unsafe"
)

// SuperblockSize is the exact on-disk size of a segment superblock.
const SuperblockSize = 64

// segmentMagic opens every real-backend WAL segment file. The iosim
// backend writes headerless files (the pre-existing format); readers sniff
// these 8 bytes to decide which they are looking at.
var segmentMagic = [8]byte{'L', 'G', 'S', 'E', 'G', 'S', 'B', '1'}

// superblockVersion is the current segment format version (2: one file
// per segment, the frame checksum covers the frame header).
const superblockVersion = 2

// hostEndian is the running host's byte order: 1 = little, 2 = big. The
// record framing is explicitly little-endian, but an mmap'd format must
// still refuse files whose native-order header fields were written by a
// foreign-endian host.
var hostEndian = func() byte {
	var one uint16 = 1
	if *(*byte)(unsafe.Pointer(&one)) == 1 {
		return 1
	}
	return 2
}()

// Validation errors, distinguishable so callers can turn "incompatible"
// into a hard failure and "torn at creation" into an empty segment.
var (
	ErrBadMagic    = errors.New("disk: not a segment superblock (wrong magic)")
	ErrEndianness  = errors.New("disk: segment written by a foreign-endian host")
	ErrBadVersion  = errors.New("disk: unsupported segment format version")
	ErrBadGeometry = errors.New("disk: segment geometry does not match its name")
	// ErrTornSuperblock marks a superblock whose CRC does not cover its
	// contents: the creating process crashed mid-header. No record was
	// ever acknowledged from such a file, so callers treat it as empty.
	ErrTornSuperblock = errors.New("disk: torn segment superblock (crash during creation)")
)

// Superblock is the decoded segment header.
type Superblock struct {
	Version  uint16
	Endian   byte
	PageSize uint32
	SegBytes uint64 // initial preallocation, for geometry sanity only
	Geo      LogGeometry
}

// HasSuperblockMagic reports whether head (>= 8 bytes) opens with the
// segment magic — the sniff readers use to distinguish real-backend
// segment files from headerless iosim ones.
func HasSuperblockMagic(head []byte) bool {
	return len(head) >= 8 && string(head[:8]) == string(segmentMagic[:])
}

// EncodeSuperblock builds the on-disk superblock for a new segment file.
// Layout (fields little-endian):
//
//	[0:8]   magic "LGSEGSB1"
//	[8:10]  version
//	[10]    endianness of the writing host (1 little, 2 big)
//	[11]    reserved
//	[12:16] page size
//	[16:24] initial segment bytes
//	[24:28] segment sequence
//	[28:32] shard index (always 0: the log is one file per segment)
//	[32:36] shard count (always 1)
//	[36:40] record header size (framing cross-check)
//	[40:60] reserved (zero)
//	[60:64] crc32(bytes [0:60])
func EncodeSuperblock(pageSize uint32, segBytes uint64, geo LogGeometry) [SuperblockSize]byte {
	var b [SuperblockSize]byte
	copy(b[0:8], segmentMagic[:])
	binary.LittleEndian.PutUint16(b[8:10], superblockVersion)
	b[10] = hostEndian
	binary.LittleEndian.PutUint32(b[12:16], pageSize)
	binary.LittleEndian.PutUint64(b[16:24], segBytes)
	binary.LittleEndian.PutUint32(b[24:28], uint32(geo.Seq))
	binary.LittleEndian.PutUint32(b[28:32], uint32(geo.Shard))
	binary.LittleEndian.PutUint32(b[32:36], uint32(geo.Shards))
	binary.LittleEndian.PutUint32(b[36:40], recordHeaderSize)
	binary.LittleEndian.PutUint32(b[60:64], crc32.ChecksumIEEE(b[0:60]))
	return b
}

// recordHeaderSize mirrors the WAL's record framing header (8B epoch + 4B
// length + 4B crc); recorded in the superblock so a framing change is a
// version bump, not silent misparsing.
const recordHeaderSize = 16

// DecodeSuperblock validates and decodes a superblock read from the head
// of a segment file. A wrong magic returns ErrBadMagic (the file is a
// headerless iosim segment or not a segment at all); a failed CRC returns
// ErrTornSuperblock (creation crashed before the header was durable — the
// segment holds no acknowledged records); endianness/version/geometry
// mismatches are hard incompatibility errors.
func DecodeSuperblock(head []byte) (Superblock, error) {
	if len(head) < SuperblockSize {
		if HasSuperblockMagic(head) {
			return Superblock{}, ErrTornSuperblock
		}
		return Superblock{}, ErrBadMagic
	}
	if !HasSuperblockMagic(head) {
		return Superblock{}, ErrBadMagic
	}
	if crc32.ChecksumIEEE(head[0:60]) != binary.LittleEndian.Uint32(head[60:64]) {
		return Superblock{}, ErrTornSuperblock
	}
	sb := Superblock{
		Version:  binary.LittleEndian.Uint16(head[8:10]),
		Endian:   head[10],
		PageSize: binary.LittleEndian.Uint32(head[12:16]),
		SegBytes: binary.LittleEndian.Uint64(head[16:24]),
		Geo: LogGeometry{
			Seq:    int(binary.LittleEndian.Uint32(head[24:28])),
			Shard:  int(binary.LittleEndian.Uint32(head[28:32])),
			Shards: int(binary.LittleEndian.Uint32(head[32:36])),
		},
	}
	if sb.Version != superblockVersion {
		return Superblock{}, fmt.Errorf("%w: file v%d, supported v%d", ErrBadVersion, sb.Version, superblockVersion)
	}
	if sb.Endian != hostEndian {
		return Superblock{}, ErrEndianness
	}
	if hdr := binary.LittleEndian.Uint32(head[36:40]); hdr != recordHeaderSize {
		return Superblock{}, fmt.Errorf("%w: record header %dB, expected %dB", ErrBadVersion, hdr, recordHeaderSize)
	}
	return sb, nil
}

// CheckGeometry verifies a decoded superblock against the sequence number
// the file's name promises (wal.ParseSegmentPath) and the one-file-per-
// segment layout. A mismatch means the file was renamed or copied into the
// wrong slot, or is one shard of a sharded segment written by an older
// build — replaying it would apply the wrong records.
func (sb Superblock) CheckGeometry(seq int) error {
	if sb.Geo.Seq != seq || sb.Geo.Shard != 0 || sb.Geo.Shards != 1 {
		return fmt.Errorf("%w: superblock says seq %d shard %d of %d, name says seq %d shard 0 of 1",
			ErrBadGeometry, sb.Geo.Seq, sb.Geo.Shard, sb.Geo.Shards, seq)
	}
	return nil
}
