package disk

// The device simulator: a Backend decorator, not a file format. It wraps
// any inner backend (NewReal in every caller) and adds two things around
// the inner files — the iosim timing model, which charges each sync
// barrier and each atomic commit to a simulated Optane/NAND device, and
// the device's crash budget, which gates how many bytes of a WAL append
// reach the inner file. The bytes themselves are whatever the inner
// backend writes, so a crash-injected tear lands in a real
// superblock-headed segment.

import "livegraph/internal/iosim"

type simBackend struct {
	Backend
	dev *iosim.Device
}

// NewSim wraps inner with dev's timing model and crash budget (a nil dev
// selects an instantaneous Null device).
func NewSim(dev *iosim.Device, inner Backend) Backend {
	if dev == nil {
		dev = iosim.NewDevice(iosim.Null)
	}
	return &simBackend{Backend: inner, dev: dev}
}

func (b *simBackend) OpenLog(path string, geo LogGeometry) (LogFile, error) {
	f, err := b.Backend.OpenLog(path, geo)
	if err != nil {
		return nil, err
	}
	return &timedLog{LogFile: f, dev: b.dev}, nil
}

func (b *simBackend) CreateAtomic(path string) (AtomicFile, error) {
	f, err := b.Backend.CreateAtomic(path)
	if err != nil {
		return nil, err
	}
	return &timedAtomic{AtomicFile: f, dev: b.dev}, nil
}

// timedLog asks the device how much of each append survives, and bills it
// for the bytes since the last barrier once the inner Sync has made them
// durable.
type timedLog struct {
	LogFile
	dev     *iosim.Device
	pending int // bytes written since the last Sync
}

func (l *timedLog) Accept(n int) (int, error) { return l.dev.Accept(n) }

func (l *timedLog) Write(p []byte) (int, error) {
	n, err := l.LogFile.Write(p)
	l.pending += n
	return n, err
}

func (l *timedLog) Sync() error {
	if err := l.LogFile.Sync(); err != nil {
		return err
	}
	if l.pending > 0 {
		l.dev.Write(l.pending)
		l.pending = 0
	}
	l.dev.Sync()
	return nil
}

// timedAtomic bills the device for the whole stream once the inner Commit
// has made it durable.
type timedAtomic struct {
	AtomicFile
	dev     *iosim.Device
	written int
}

func (a *timedAtomic) Write(p []byte) (int, error) {
	n, err := a.AtomicFile.Write(p)
	a.written += n
	return n, err
}

func (a *timedAtomic) Commit() error {
	if err := a.AtomicFile.Commit(); err != nil {
		return err
	}
	a.dev.Write(a.written)
	a.dev.Sync()
	return nil
}
