//go:build linux

package disk

// The mmap segment file (linux): the segment file is preallocated with
// ftruncate and mapped read-write shared; appends are memcpys into the
// mapping and the durability barrier is msync(MS_SYNC) over the dirty
// page range — the write path the paper's mmap-backed store uses.
//
// Crash contract: the file carries its preallocated size until a clean
// Close trims it, so after a crash the tail past the last durable record
// is zero-filled pages. The WAL's record framing treats an all-zero
// header as end-of-log (real epochs start at 1), and a record half-copied
// when the machine died fails its CRC — either way replay stops exactly
// at the durable prefix.

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

type mmapLog struct {
	f        *os.File
	data     []byte // the mapping; len(data) == file size
	off      int    // append offset
	syncedTo int    // everything below this offset has been msync'd
	pageSize int
	// err is sticky: the first failed grow, remap or msync. After it the
	// mapping may be gone and the dirty pages' fate is unknown, so every
	// later Write and Sync reports it rather than claiming durability.
	err error
}

// openRealLog creates a fresh mmap'd segment file: preallocate, map,
// write + msync the superblock, fsync once so the file's size metadata is
// durable before any record lands in the preallocated region.
func openRealLog(path string, segBytes int64, pageSize int, geo LogGeometry) (LogFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", path, err)
	}
	if err := f.Truncate(segBytes); err != nil {
		_ = f.Close() // discarding a never-used segment: the truncate error wins
		return nil, fmt.Errorf("disk: preallocate %s: %w", path, err)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(segBytes), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		_ = f.Close() // discarding a never-used segment: the mmap error wins
		return nil, fmt.Errorf("disk: mmap %s: %w", path, err)
	}
	l := &mmapLog{f: f, data: data, pageSize: pageSize}
	sb := EncodeSuperblock(uint32(pageSize), uint64(segBytes), geo)
	copy(l.data[:SuperblockSize], sb[:])
	l.off = SuperblockSize
	if err := l.msyncRange(0, l.off); err != nil {
		_ = l.Close() // discarding a never-used segment: the msync error wins
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = l.Close() // discarding a never-used segment: the fsync error wins
		return nil, fmt.Errorf("disk: fsync %s: %w", path, err)
	}
	l.syncedTo = l.off
	return l, nil
}

func (l *mmapLog) Write(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	if err := l.ensure(len(p)); err != nil {
		l.err = err
		return 0, err
	}
	copy(l.data[l.off:], p)
	l.off += len(p)
	return len(p), nil
}

// ensure grows the file and remaps when the append region is exhausted:
// double the size until the write fits, ftruncate, fsync (the new size
// metadata must be durable before records occupy it), remap.
func (l *mmapLog) ensure(n int) error {
	need := l.off + n
	if need <= len(l.data) {
		return nil
	}
	size := len(l.data)
	for size < need {
		size *= 2
	}
	if err := syscall.Munmap(l.data); err != nil {
		return fmt.Errorf("disk: munmap for growth: %w", err)
	}
	l.data = nil
	if err := l.f.Truncate(int64(size)); err != nil {
		return fmt.Errorf("disk: grow segment: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("disk: fsync grown segment: %w", err)
	}
	data, err := syscall.Mmap(int(l.f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("disk: remap grown segment: %w", err)
	}
	l.data = data
	return nil
}

// Accept always admits the full write: the real backend has no simulated
// crash points — crashes are injected by killing the process.
func (l *mmapLog) Accept(n int) (int, error) { return n, nil }

// Sync makes every appended byte durable: msync(MS_SYNC) from the first
// dirty page through the append offset.
func (l *mmapLog) Sync() error {
	if l.err != nil || l.off == l.syncedTo {
		return l.err
	}
	lo := l.syncedTo - l.syncedTo%l.pageSize // page floor of the dirty range
	if err := l.msyncRange(lo, l.off); err != nil {
		l.err = err
		return err
	}
	l.syncedTo = l.off
	return nil
}

// msyncRange msyncs the page-aligned span covering [lo, hi).
func (l *mmapLog) msyncRange(lo, hi int) error {
	lo -= lo % l.pageSize
	if hi > len(l.data) {
		hi = len(l.data)
	}
	if hi <= lo {
		return nil
	}
	b := l.data[lo:hi]
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return fmt.Errorf("disk: msync: %w", errno)
	}
	return nil
}

// Close makes the log durable, unmaps it, and trims the preallocated zero
// tail so readers and segment transfers see the exact record extent.
func (l *mmapLog) Close() error {
	first := l.err
	if l.data != nil {
		if err := l.Sync(); err != nil && first == nil {
			first = err
		}
		if err := syscall.Munmap(l.data); err != nil && first == nil {
			first = err
		}
		l.data = nil
	}
	if first == nil {
		if err := l.f.Truncate(int64(l.off)); err != nil {
			first = err
		} else if err := l.f.Sync(); err != nil {
			first = err
		}
	}
	if err := l.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
