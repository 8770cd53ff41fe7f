// Package iosim models the storage hardware of the paper's testbed (Table 2)
// so durability and out-of-core experiments can run anywhere.
//
// Two pieces:
//
//   - Device: a write-ahead-log target with a per-operation base latency and
//     a bandwidth term. Profiles approximate the paper's Intel Optane P4800X
//     and Dell NAND SSDs. The WAL's group-commit fsyncs go through a Device,
//     so the latency/throughput trade-offs the paper measures (group commit
//     amortisation, Optane vs NAND gap) are reproduced in shape.
//
//   - PageCache: an LRU resident-set simulator standing in for the paper's
//     cgroup-limited mmap page cache. Out-of-core experiments cap the
//     resident bytes; touching a non-resident block charges the device's
//     read latency, which is exactly the effect the paper's OOC tables
//     (5, 6, 8) measure.
package iosim

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes a storage device's performance envelope.
type Profile struct {
	Name         string
	WriteLatency time.Duration // per-fsync base latency
	ReadLatency  time.Duration // per-miss base latency (page fault)
	WriteBWBps   int64         // sustained write bandwidth, bytes/sec
	ReadBWBps    int64         // sustained read bandwidth, bytes/sec
}

// Paper-testbed-inspired profiles. Absolute values are representative of
// the device classes; the experiments depend on their ratio, not the
// absolute figures.
var (
	// Optane approximates the Intel Optane P4800X: very low latency,
	// ~2.2 GB/s writes.
	Optane = Profile{Name: "Optane", WriteLatency: 10 * time.Microsecond,
		ReadLatency: 10 * time.Microsecond, WriteBWBps: 2_200_000_000, ReadBWBps: 2_400_000_000}
	// NAND approximates the Dell PM1725a NAND SSD: higher latency,
	// ~2 GB/s writes.
	NAND = Profile{Name: "NAND", WriteLatency: 80 * time.Microsecond,
		ReadLatency: 90 * time.Microsecond, WriteBWBps: 2_000_000_000, ReadBWBps: 3_000_000_000}
	// Null is an instantaneous device for tests that don't measure I/O.
	Null = Profile{Name: "Null"}
)

// Device simulates a durable append target. Writes accumulate in a buffer
// discarded on Sync (the data itself is persisted by the caller's file if
// durability of content matters; Device only models *timing*).
//
// A Device is one submission queue: Syncs on it serialise against each
// other.
type Device struct {
	prof Profile

	syncs        atomic.Int64
	bytesWritten atomic.Int64
	readFaults   atomic.Int64
	bytesRead    atomic.Int64

	mu        sync.Mutex
	pending   int64 // bytes buffered since last sync
	busyUntil time.Time

	// Crash injection (see CrashAfter): while armed, Accept consumes the
	// byte budget; writes past it never reach media.
	crashMu     sync.Mutex
	crashArmed  bool
	crashBudget int64
}

// NewDevice creates a device with the given profile.
func NewDevice(p Profile) *Device { return &Device{prof: p} }

// Profile returns the device's profile.
func (d *Device) Profile() Profile { return d.prof }

// Crash injection ------------------------------------------------------------

// ErrCrashed is returned (wrapped) by Accept once an armed crash point has
// been reached: the device is dead and accepts no further bytes.
var ErrCrashed = errors.New("iosim: device crashed")

// CrashAfter arms a crash point n bytes of Accept traffic from now: the
// write that crosses the budget is torn (its prefix reaches media), and
// every later write is dropped entirely. Revive clears the state.
func (d *Device) CrashAfter(n int64) {
	d.crashMu.Lock()
	d.crashArmed = true
	d.crashBudget = n
	d.crashMu.Unlock()
}

// Revive clears an armed or tripped crash point (the "restart" in a
// crash-recovery test that reuses one device).
func (d *Device) Revive() {
	d.crashMu.Lock()
	d.crashArmed = false
	d.crashBudget = 0
	d.crashMu.Unlock()
}

// Crashed reports whether the crash point has been reached.
func (d *Device) Crashed() bool {
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	return d.crashArmed && d.crashBudget <= 0
}

// Accept asks the device to persist an n-byte write. It returns how many
// of the bytes reach media: n with a nil error normally, a shorter prefix
// with ErrCrashed if the write crosses an armed crash point, and 0 with
// ErrCrashed once the device is dead. Callers that persist real bytes
// (the WAL) must truncate their write to the accepted prefix, yielding a
// genuinely torn file.
func (d *Device) Accept(n int) (int, error) {
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	if !d.crashArmed {
		return n, nil
	}
	if d.crashBudget <= 0 {
		return 0, ErrCrashed
	}
	accepted := int64(n)
	var err error
	if accepted > d.crashBudget {
		accepted = d.crashBudget
		err = ErrCrashed
	}
	d.crashBudget -= int64(n)
	return int(accepted), err
}

// Write buffers n bytes (no latency until Sync, like OS write buffering).
func (d *Device) Write(n int) {
	d.mu.Lock()
	d.pending += int64(n)
	d.mu.Unlock()
	d.bytesWritten.Add(int64(n))
}

// Sync models an fsync of the buffered bytes: base latency plus the
// bandwidth term, serialised against other device operations (a device has
// one queue). It blocks the caller for the simulated duration.
func (d *Device) Sync() {
	d.syncs.Add(1)
	if d.prof.WriteLatency == 0 && d.prof.WriteBWBps == 0 {
		d.mu.Lock()
		d.pending = 0
		d.mu.Unlock()
		return
	}
	d.mu.Lock()
	dur := d.prof.WriteLatency
	if d.prof.WriteBWBps > 0 {
		dur += time.Duration(d.pending * int64(time.Second) / d.prof.WriteBWBps)
	}
	d.pending = 0
	now := time.Now()
	start := now
	if d.busyUntil.After(now) {
		start = d.busyUntil
	}
	end := start.Add(dur)
	d.busyUntil = end
	d.mu.Unlock()
	sleepPrecise(end.Sub(now))
}

// sleepPrecise blocks for d with microsecond accuracy: time.Sleep's timer
// granularity overshoots sub-100µs sleeps by an order of magnitude, which
// would distort the device model, so short waits spin.
func sleepPrecise(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > 200*time.Microsecond {
		time.Sleep(d - 100*time.Microsecond)
	}
	for time.Now().Before(deadline) {
	}
}

// ReadFault models a page fault of n bytes: base read latency plus
// bandwidth term. Concurrent faults are not serialised (SSDs have deep
// queues for reads).
func (d *Device) ReadFault(n int) {
	d.readFaults.Add(1)
	d.bytesRead.Add(int64(n))
	if d.prof.ReadLatency == 0 && d.prof.ReadBWBps == 0 {
		return
	}
	dur := d.prof.ReadLatency
	if d.prof.ReadBWBps > 0 {
		dur += time.Duration(int64(n) * int64(time.Second) / d.prof.ReadBWBps)
	}
	sleepPrecise(dur)
}

// DeviceStats is a snapshot of device counters.
type DeviceStats struct {
	Syncs        int64
	BytesWritten int64
	ReadFaults   int64
	BytesRead    int64
}

// Stats returns the device counters.
func (d *Device) Stats() DeviceStats {
	return DeviceStats{
		Syncs:        d.syncs.Load(),
		BytesWritten: d.bytesWritten.Load(),
		ReadFaults:   d.readFaults.Load(),
		BytesRead:    d.bytesRead.Load(),
	}
}

// PageCache simulates a capped resident set over identified pages (we use
// one page per storage block). Touch returns true on a hit; on a miss it
// charges the backing device a read fault for the page size and admits the
// page, evicting LRU pages to stay under the cap.
//
// The cache is lock-striped: pages hash across up to maxCacheShards
// independent LRU shards, each guarded by its own mutex and holding an
// equal slice of the byte budget, so concurrent traversal workers don't
// serialise on one cache lock. Aggregate semantics are preserved — total
// resident bytes never exceed the cap, and hit/miss counters span all
// shards. Small caps (under one page-cache shard's worth of budget per
// stripe) collapse to a single shard, which keeps exact global LRU order
// where it is observable.
type PageCache struct {
	dev    *Device
	shards []cacheShard
	mask   uint64

	// unlimited short-circuits Touch entirely when the cap is <= 0
	// (in-memory mode: every touch hits, no lock taken).
	unlimited atomic.Bool

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheShard struct {
	mu       sync.Mutex
	cap      int64
	resident map[uint64]*list.Element // page id -> lru element
	lru      *list.List               // front = most recent
	used     int64
	_        [4]int64 // keep neighboring shard locks off one cache line
}

type cachePage struct {
	id   uint64
	size int64
}

const (
	// maxCacheShards bounds the stripe fan-out; past the typical worker
	// counts more stripes only shrink each shard's LRU horizon.
	maxCacheShards = 8
	// minShardBytes is the least budget worth giving a stripe of its
	// own (64 four-KiB pages). Caps below shards*minShardBytes use
	// fewer stripes, down to one — exact LRU — for tiny caches.
	minShardBytes = 64 * 4096
)

// cacheShardsFor picks the stripe count for an initial byte budget:
// the largest power of two <= maxCacheShards whose shards each get at
// least minShardBytes. Unlimited caches take the maximum (the cap may
// shrink later via SetCap; an unlimited cache never locks anyway).
func cacheShardsFor(capBytes int64) int {
	if capBytes <= 0 {
		return maxCacheShards
	}
	n := 1
	for n*2 <= maxCacheShards && int64(n*2)*minShardBytes <= capBytes {
		n *= 2
	}
	return n
}

// NewPageCache creates a cache with capBytes of simulated resident memory
// backed by dev. capBytes <= 0 means unlimited (in-memory mode: every touch
// hits).
func NewPageCache(dev *Device, capBytes int64) *PageCache {
	n := cacheShardsFor(capBytes)
	c := &PageCache{dev: dev, shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].resident = make(map[uint64]*list.Element)
		c.shards[i].lru = list.New()
	}
	c.setCap(capBytes)
	return c
}

// shardOf maps a page id to its stripe. The splitmix finalizer spreads
// the sequential page ids a scan touches across stripes, so concurrent
// scans contend only 1/nth of the time.
func (c *PageCache) shardOf(id uint64) *cacheShard {
	id += 0x9e3779b97f4a7c15
	id = (id ^ (id >> 30)) * 0xbf58476d1ce4e5b9
	return &c.shards[(id^(id>>27))&c.mask]
}

// Touch accesses page id of the given size. Returns true on a hit.
func (c *PageCache) Touch(id uint64, size int64) bool {
	if c.unlimited.Load() {
		c.hits.Add(1)
		return true
	}
	s := c.shardOf(id)
	s.mu.Lock()
	if el, ok := s.resident[id]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		c.hits.Add(1)
		return true
	}
	// Admit, evicting as needed.
	s.admitLocked(id, size)
	s.mu.Unlock()
	c.misses.Add(1)
	c.dev.ReadFault(int(size))
	return false
}

func (s *cacheShard) admitLocked(id uint64, size int64) {
	for s.used+size > s.cap && s.lru.Len() > 0 {
		back := s.lru.Back()
		pg := back.Value.(cachePage)
		s.lru.Remove(back)
		delete(s.resident, pg.id)
		s.used -= pg.size
	}
	s.resident[id] = s.lru.PushFront(cachePage{id: id, size: size})
	s.used += size
}

// SetCap changes the resident-set budget, evicting LRU pages if the new
// cap is smaller. Used when the budget is a fraction of a footprint only
// known after loading (the paper sizes its cgroup cap at 16% of
// LiveGraph's measured usage).
func (c *PageCache) SetCap(capBytes int64) { c.setCap(capBytes) }

func (c *PageCache) setCap(capBytes int64) {
	if capBytes <= 0 {
		c.unlimited.Store(true)
		return
	}
	// The budget splits evenly across stripes; every stripe keeps at
	// least one byte of budget so a tiny cap still evicts rather than
	// reading as "unlimited".
	per := capBytes / int64(len(c.shards))
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.cap = per
		for s.used > per && s.lru.Len() > 0 {
			back := s.lru.Back()
			pg := back.Value.(cachePage)
			s.lru.Remove(back)
			delete(s.resident, pg.id)
			s.used -= pg.size
		}
		s.mu.Unlock()
	}
	c.unlimited.Store(false)
}

// Forget drops page id from the resident set (e.g. the block was freed).
func (c *PageCache) Forget(id uint64) {
	if c.unlimited.Load() {
		return
	}
	s := c.shardOf(id)
	s.mu.Lock()
	if el, ok := s.resident[id]; ok {
		pg := el.Value.(cachePage)
		s.lru.Remove(el)
		delete(s.resident, id)
		s.used -= pg.size
	}
	s.mu.Unlock()
}

// CacheStats is a snapshot of hit/miss counters.
type CacheStats struct {
	Hits, Misses  int64
	ResidentBytes int64
}

// Stats returns cache counters, aggregated across all shards.
func (c *PageCache) Stats() CacheStats {
	var used int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		used += s.used
		s.mu.Unlock()
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), ResidentBytes: used}
}
