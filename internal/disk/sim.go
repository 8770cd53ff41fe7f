package disk

// The iosim-timed backend: the pre-existing persistence bottom, kept as a
// first-class Backend so crash-injection tests and out-of-core experiments
// keep working unchanged. Files are real (appends genuinely fsync), but
// every batch is additionally charged to an iosim.Device so the paper's
// Optane/NAND latency models shape commit timing, and the device's armed
// crash points gate how many bytes a batch may persist.

import (
	"bufio"
	"fmt"
	"os"

	"livegraph/internal/iosim"
)

type simBackend struct {
	dev *iosim.Device
}

// NewSim returns the iosim-timed backend over dev (nil selects an
// instantaneous Null device).
func NewSim(dev *iosim.Device) Backend {
	if dev == nil {
		dev = iosim.NewDevice(iosim.Null)
	}
	return &simBackend{dev: dev}
}

func (b *simBackend) Name() string { return "iosim" }

func (b *simBackend) OpenLog(path string, _ LogGeometry) (LogFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", path, err)
	}
	return &simLog{f: f, w: bufio.NewWriterSize(f, 1<<20), dev: b.dev}, nil
}

func (b *simBackend) CreateAtomic(path string) (AtomicFile, error) {
	return newAtomicFile(path, func(n int64) {
		b.dev.Write(int(n))
		b.dev.Sync()
	})
}

func (b *simBackend) SyncDir(dir string) error { return SyncDir(dir) }

func (b *simBackend) Remove(path string) error { return removeDurable(path) }

func (b *simBackend) DefaultWALShards() int { return 1 }

// simLog is a buffered append file whose Sync performs a real fsync and
// then bills the simulated device for the bytes since the last barrier.
type simLog struct {
	f       *os.File
	w       *bufio.Writer
	dev     *iosim.Device
	pending int // bytes written since the last Sync
}

func (l *simLog) Write(p []byte) (int, error) {
	n, err := l.w.Write(p)
	l.pending += n
	return n, err
}

func (l *simLog) Accept(n int) (int, error) { return l.dev.Accept(n) }

func (l *simLog) Sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if l.pending > 0 {
		l.dev.Write(l.pending)
		l.pending = 0
	}
	l.dev.Sync()
	return nil
}

func (l *simLog) Close() error {
	if err := l.w.Flush(); err != nil {
		_ = l.f.Close() // the flush error already poisons this log; it wins
		return err
	}
	return l.f.Close()
}
