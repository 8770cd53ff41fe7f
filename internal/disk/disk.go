// Package disk is the durable storage backend seam: every byte the engine
// persists — WAL appends, checkpoint snapshots, the CHECKPOINT
// pointer — goes through a Backend. There is one file implementation,
// NewReal: mmap'd, superblock-headed WAL segment files with genuine
// msync/fsync durability, and checkpoint files written under the
// crash-atomic swap protocol. It is the default under core.Options.
//
// NewSim is not a second format but a decorator around any Backend: it
// charges sync barriers and atomic commits to an iosim.Device, preserving
// the paper-testbed device models, and gates WAL appends through the
// device's crash budget (Device.CrashAfter tears a write at a
// device-chosen byte), so the crash tests tear the segment format
// production writes.
//
// The crash-atomic file-swap protocol (CreateAtomic / WriteFileAtomic):
// stream to `<path>.tmp`, fsync the file, rename over the final path,
// fsync the parent directory. After a crash at any point the final path
// holds either the complete old contents or the complete new contents,
// and the rename is durable only if the contents are — the property the
// checkpoint swap (core.Checkpoint) is built on.
package disk

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// LogGeometry identifies a WAL segment file's place in the log, recorded
// in the real backend's superblock and cross-checked on open. The log is
// one file per segment, so Shard is always 0 and Shards always 1; the
// fields (and the superblock bytes behind them) stay because the frozen
// benchmark/ package compiles against them.
type LogGeometry struct {
	Seq    int // segment sequence number
	Shard  int // always 0
	Shards int // always 1
}

// SegmentGeometry is the geometry of segment seq of the one-file log.
func SegmentGeometry(seq int) LogGeometry { return LogGeometry{Seq: seq, Shards: 1} }

// LogFile is one WAL segment: an append-only durable byte stream. Write
// buffers; Sync is the durability barrier for everything written before
// it. Accept is the crash-injection gate — it asks the (possibly
// simulated) device how many of the next n bytes will reach media, so the
// WAL can persist exactly that prefix and produce a genuinely torn file;
// the real backend always accepts everything.
type LogFile interface {
	io.Writer
	// Accept reports how many of the next n bytes reach durable media: n
	// with a nil error normally, a shorter prefix with an error once a
	// simulated crash point is crossed.
	Accept(n int) (int, error)
	// Sync makes every byte written so far durable.
	Sync() error
	Close() error
}

// AtomicFile is a file being written under the crash-atomic swap
// protocol: bytes stream to a temp path, and Commit performs
// fsync(tmp) → rename(tmp, final) → fsync(dir). Until Commit returns, the
// final path is untouched; after it returns, the new contents are durable
// under the final name. Abort discards the temp file.
type AtomicFile interface {
	io.Writer
	Commit() error
	Abort() error
}

// Backend abstracts the durable file layer under the WAL and the
// checkpointer. NewReal implements it; NewSim wraps an implementation
// with a device model.
type Backend interface {
	// Name identifies the file implementation ("disk").
	Name() string
	// OpenLog creates (or truncates) a WAL segment append file.
	OpenLog(path string, geo LogGeometry) (LogFile, error)
	// CreateAtomic begins writing path under the atomic swap protocol.
	CreateAtomic(path string) (AtomicFile, error)
	// SyncDir makes dir's entries durable: files created (or renamed in)
	// before this call survive a crash after it.
	SyncDir(dir string) error
	// Remove unlinks path and makes the unlink durable (best-effort: a
	// resurrected file is garbage recovery already tolerates, unlike a
	// vanished one).
	Remove(path string) error
	// DefaultWALShards always returns 1 and nothing in the engine calls
	// it; it stays because the frozen benchmark/ package's backend
	// wrappers are compiled against it.
	DefaultWALShards() int
}

// SyncDir fsyncs a directory, making its entries durable. On filesystems
// that refuse to fsync directories the error is swallowed: there is no
// stronger primitive available there, and the rename-based protocols
// remain correct on every platform that orders metadata (all journaled
// filesystems).
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Read-only directory handle: Sync is the durability barrier; a Close
	// failure afterwards cannot lose data.
	defer func() { _ = d.Close() }()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return fmt.Errorf("disk: fsync dir %s: %w", dir, err)
	}
	return nil
}

func isSyncUnsupported(err error) bool {
	// EINVAL/ENOTSUP from fsync on a directory handle (some network and
	// FUSE filesystems). os wraps the errno in a *PathError, so it is
	// matched through the chain, not by its text.
	return os.IsPermission(err) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

// WriteFileAtomic durably replaces path's contents with data using the
// swap protocol: write `path.tmp`, fsync it, rename over path, fsync the
// directory. A crash leaves either the old file or the new one — never a
// prefix, and never a durable dirent naming non-durable bytes.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // cleanup of a discarded temp file: the write error wins
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // cleanup of a discarded temp file: the sync error wins
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// atomicFile implements AtomicFile over a buffered temp file.
type atomicFile struct {
	f     *os.File
	w     *bufio.Writer
	tmp   string
	final string
}

func newAtomicFile(path string) (*atomicFile, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &atomicFile{f: f, w: bufio.NewWriterSize(f, 1<<20), tmp: tmp, final: path}, nil
}

func (a *atomicFile) Write(p []byte) (int, error) { return a.w.Write(p) }

func (a *atomicFile) Commit() error {
	if err := a.w.Flush(); err != nil {
		a.Abort()
		return err
	}
	if err := a.f.Sync(); err != nil {
		a.Abort()
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.tmp)
		return err
	}
	if err := os.Rename(a.tmp, a.final); err != nil {
		os.Remove(a.tmp)
		return err
	}
	return SyncDir(filepath.Dir(a.final))
}

func (a *atomicFile) Abort() error {
	_ = a.f.Close() // the temp file is being discarded; unlink outcome wins
	return os.Remove(a.tmp)
}

// removeDurable unlinks path and fsyncs its directory so the unlink
// itself survives a crash. Failure to fsync is not fatal: a file
// resurrected by a crash is superseded garbage that recovery skips.
func removeDurable(path string) error {
	if err := os.Remove(path); err != nil {
		return err
	}
	_ = SyncDir(filepath.Dir(path)) // best-effort by contract (see Backend.Remove)
	return nil
}
