package disk

// The real backend: no simulated timing, no crash-injection device — the
// durability the kernel and the hardware actually provide. WAL segments are
// mmap'd, superblock-headed segment files (see superblock.go); checkpoint
// snapshots and the CHECKPOINT pointer go through the shared atomic swap
// protocol with genuine fsyncs. Benchmarks run against this backend
// measure the machine, not a model.

import "os"

// defaultSegBytes is a new segment file's preallocation. Segments rotate
// at every checkpoint, so this is a growth quantum, not a cap: a segment
// that outgrows it remaps at double the size.
const defaultSegBytes = 4 << 20

// RealOptions tunes the real backend.
type RealOptions struct {
	// SegBytes is the initial preallocation of each WAL segment file
	// (rounded up to the page size). Zero selects the 4 MiB default.
	SegBytes int64
}

type realBackend struct {
	segBytes int64
	pageSize int
}

// NewReal returns the real mmap-backed storage backend with default
// geometry.
func NewReal() Backend { return NewRealOpts(RealOptions{}) }

// NewRealOpts returns the real backend with explicit geometry (tests use
// tiny segments to exercise remap growth).
func NewRealOpts(o RealOptions) Backend {
	page := os.Getpagesize()
	seg := o.SegBytes
	if seg <= 0 {
		seg = defaultSegBytes
	}
	// Round up to a whole number of pages, with room for the superblock.
	if seg < int64(SuperblockSize) {
		seg = int64(SuperblockSize)
	}
	if rem := seg % int64(page); rem != 0 {
		seg += int64(page) - rem
	}
	return &realBackend{segBytes: seg, pageSize: page}
}

func (b *realBackend) Name() string { return "disk" }

func (b *realBackend) OpenLog(path string, geo LogGeometry) (LogFile, error) {
	return openRealLog(path, b.segBytes, b.pageSize, geo)
}

func (b *realBackend) CreateAtomic(path string) (AtomicFile, error) {
	return newAtomicFile(path, nil)
}

func (b *realBackend) SyncDir(dir string) error { return SyncDir(dir) }

func (b *realBackend) Remove(path string) error { return removeDurable(path) }

func (b *realBackend) DefaultWALShards() int { return 1 }
