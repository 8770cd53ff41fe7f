// Package core implements the LiveGraph storage engine (paper §3–§6): the
// 2-D data layout (vertex blocks + per-vertex, per-label Transactional Edge
// Logs), the MVCC transaction protocol with group commit, compaction, and
// durability.
package core

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"livegraph/internal/disk"
	"livegraph/internal/iosim"
	"livegraph/internal/maint"
	"livegraph/internal/mvcc"
	"livegraph/internal/obs"
	"livegraph/internal/storage"
	"livegraph/internal/tel"
	"livegraph/internal/wal"
)

// VertexID identifies a vertex. IDs are dense and grow contiguously from 0,
// which is what makes the array-based vertex/edge indices possible.
type VertexID int64

// Label identifies an edge label. Edges incident to the same vertex are
// grouped into one adjacency list (TEL) per label.
type Label int64

// Options configures a Graph.
type Options struct {
	// Dir enables durability: the WAL and checkpoints live here. Empty
	// means a volatile, in-memory graph (no WAL writes at commit).
	Dir string

	// Device models the persistence hardware (Optane/NAND profiles). Nil
	// selects the instantaneous Null device. Only consulted by the iosim
	// backend (the default); an explicit real Backend ignores it.
	Device *iosim.Device

	// Backend selects the durable storage bottom: disk.NewSim(Device)
	// (the default — iosim-timed files, crash injection, device models)
	// or disk.NewReal() (mmap'd superblock-headed segments, genuine
	// msync/fsync, no simulated timing).
	Backend disk.Backend

	// Workers sizes the reading-epoch table and bounds the number of
	// goroutines that may run transactions concurrently with dedicated
	// worker slots. Defaults to 64.
	Workers int

	// CompactEvery triggers a compaction pass after this many committed
	// write transactions. Defaults to 65536, the paper's setting.
	// Negative disables automatic compaction entirely (background
	// scheduler included; CompactNow still compacts on demand). With the
	// background maintenance engine (the default), the commit count is
	// one pressure trigger among several — see Maint.
	CompactEvery int

	// Maint tunes the background maintenance engine: budgeted,
	// morsel-parallel compaction passes run off the commit path by a
	// scheduler (internal/maint), triggered by dirty-set size, the
	// dead-bytes estimate, the CompactEvery commit count, and a
	// wall-clock floor. The zero value selects the defaults.
	Maint MaintOptions

	// LockTimeout bounds vertex lock waits; timing out aborts the
	// transaction (deadlock avoidance). Defaults to 50ms.
	LockTimeout time.Duration

	// PageCache, when non-nil, simulates out-of-core execution: every
	// block access is charged through the cache.
	PageCache *iosim.PageCache

	// Ckpt tunes the incremental checkpointer (delta snapshots riding
	// the checkpoint-scoped dirty journal). The zero value selects the
	// defaults; Ckpt.DisableDelta forces every checkpoint full.
	Ckpt CkptOptions

	// TraversalParallelism is the default worker-pool width for the
	// traversal engine: how many workers a parallel-capable Reader (a
	// snapshot) fans frontier expansion out over when the traversal itself
	// does not set Parallel. Zero means GOMAXPROCS at run time; 1 keeps
	// every hop on the caller's goroutine engine-wide. It is the engine's
	// only traversal option — when a pool engages, its morsel width and the
	// bottom-up switch follow from degree statistics and the constants in
	// traverse.go. Analytics kernels take their worker count explicitly.
	TraversalParallelism int

	// HistoryRetention keeps invalidated versions readable for this many
	// epochs behind the current read epoch, enabling temporal queries via
	// SnapshotAt (the paper's §9 future-work direction: "the
	// multi-versioning nature of TELs makes it natural to support temporal
	// graph processing, with modifications to the compaction algorithm").
	// Zero retains only what in-flight transactions need.
	HistoryRetention int64

	// Obs configures the observability layer: the instrument registry,
	// trace sampling and the slow-op log. The zero value selects the
	// default rates.
	Obs ObsOptions
}

func (o *Options) fill() {
	if o.Device == nil {
		o.Device = iosim.NewDevice(iosim.Null)
	}
	if o.Backend == nil {
		o.Backend = disk.NewSim(o.Device)
	}
	if o.Workers <= 0 {
		o.Workers = 64
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 65536
	}
	if o.LockTimeout <= 0 {
		o.LockTimeout = 50 * time.Millisecond
	}
	o.Ckpt.fill()
}

// vertexVersion is one copy-on-write version of a vertex (paper §3,
// "Vertices"): the newest version is reachable from the vertex index and
// each version points at its predecessor.
type vertexVersion struct {
	ts      int64 // commit timestamp
	data    []byte
	deleted bool
	prev    *vertexVersion
}

// labelEntry holds the current TEL for one (vertex, label) pair — the
// paper's label index block slot. The TEL pointer is swapped atomically on
// block upgrade and compaction.
type labelEntry struct {
	label Label
	tel   atomic.Pointer[tel.TEL]
}

// labelList is the per-vertex label index block: a copy-on-write slice of
// label entries. Mutations happen under the vertex lock; readers load the
// slice pointer atomically.
type labelList struct {
	entries atomic.Pointer[[]*labelEntry]
}

func (ll *labelList) find(label Label) *labelEntry {
	ls := ll.entries.Load()
	if ls == nil {
		return nil
	}
	for _, e := range *ls {
		if e.label == label {
			return e
		}
	}
	return nil
}

// addLocked appends a new label entry; caller holds the vertex lock.
func (ll *labelList) addLocked(e *labelEntry) {
	old := ll.entries.Load()
	var grown []*labelEntry
	if old != nil {
		grown = append(grown, *old...)
	}
	grown = append(grown, e)
	ll.entries.Store(&grown)
}

// Graph is a LiveGraph storage engine instance.
type Graph struct {
	opts  Options
	alloc *storage.Allocator

	epochs  mvcc.Epochs
	tids    mvcc.TIDs
	readers *mvcc.ReaderTable
	locks   *mvcc.LockTable

	vindex     chunkedIndex[vertexVersion]
	eindex     chunkedIndex[labelList]
	nextVertex atomic.Int64

	// Adaptive-traversal substrate: per-label degree statistics
	// (stats.go) and the reverse hint index (revindex.go), both keyed by
	// label — dense and small, unlike destination IDs, which may span
	// the whole int64 space and are kept sparse inside each generation.
	// A label's rev slot is nil until something asks for its in-edges;
	// revMu admits one build or fold at a time.
	lstats   chunkedIndex[labelStats]
	rev      chunkedIndex[revGen]
	revMu    sync.Mutex
	revStats struct{ builds, mainHints, overlayHints atomic.Int64 }

	slots  chan int // pool of worker slots (reader-table indices)
	commit *committer
	// log is the current WAL segment. Atomic because checkpoint rotation
	// swaps it while observability accessors (DurableEpoch,
	// WALAppendedBytes) read it without the committer mutex; all writers
	// of the pointer hold commit.mu, so loads within a commit group are
	// stable.
	log    atomic.Pointer[wal.Log]
	walSeq int
	// walBytes accumulates bytes appended to rotated-away segments.
	// walBytesMu makes {walBytes, log} consistent for WALAppendedBytes
	// against rotation, which retires the old segment's count and swaps
	// the pointer as one step — without it the gauge would transiently
	// double- or under-count a whole segment mid-checkpoint.
	walBytesMu sync.Mutex
	walBytes   int64

	// follower marks the graph a read replica driven by ApplyEpoch:
	// local write transactions are rejected with ErrFollower, since the
	// replica's epoch sequence is dictated by its primary.
	follower atomic.Bool

	// applyMu serialises ApplyEpoch (one replication stream at a time);
	// replH is the applier's pooled allocation handle.
	applyMu sync.Mutex
	replH   *storage.Handle

	handleMu sync.Mutex
	handles  []*storage.Handle // one pooled allocation handle per slot

	// maintenance: the striped dirty set feeds the background scheduler;
	// maintHandles are the per-worker allocation handles of one slice
	// (slices are single-flight, so a fixed pool indexed by worker is
	// race-free). With maintenance disabled there is no scheduler
	// goroutine to provide the single flight, so inlinePass serialises
	// CompactNow callers driving the slice runner themselves.
	writeTxns    atomic.Int64
	dirty        *maint.DirtySet
	maintSched   *maint.Scheduler
	maintStats   maint.Stats
	maintHandles []*storage.Handle
	maintWorkers int
	maintBuf     []maint.Dirty
	inlinePass   sync.Mutex

	// ckptMu serialises Checkpoint: overlapping checkpoints would race
	// on segment rotation, pruning, and the CHECKPOINT meta file.
	// lastCkptEpoch (under ckptMu for writes) is the epoch the newest
	// checkpoint captured; dirtySinceCkpt counts vertex dirtyings since
	// then — together they gate checkpoint eligibility: a graph whose
	// read epoch hasn't moved past the last checkpoint has nothing new
	// to capture, and the dirty counter lets callers scale checkpoint
	// cadence to actual mutation volume.
	ckptMu         sync.Mutex
	lastCkptEpoch  atomic.Int64
	dirtySinceCkpt atomic.Int64

	// ckptDirty is the checkpoint-scoped dirty journal: the set of
	// vertices changed since the last completed checkpoint, fed at APPLY
	// time only (committer.apply under commit.mu, applyOpLive under
	// applyMu, replayOp during single-threaded recovery) and drained by
	// Checkpoint while holding both mutexes — so a drain can never
	// consume a mark for a change the checkpoint's snapshot does not yet
	// see. A volatile graph cannot checkpoint, so it has no journal (nil).
	// ckptBase/ckptDeltas (under ckptMu) mirror the durable CHECKPOINT
	// meta: the base snapshot's epoch and the ordered delta-chain epochs
	// hanging from it.
	ckptDirty  *maint.DirtySet
	ckptBase   int64
	ckptDeltas []int64
	ckptStats  CkptStats

	stats  GraphStats
	closed atomic.Bool

	// Observability: obsReg is the scrape surface and ob the hot-path
	// instruments and tracer; both are set by Open.
	obsReg   *obs.Registry
	ob       *graphObs
	obsStart time.Time
}

// GraphStats aggregates engine counters.
type GraphStats struct {
	Commits     atomic.Int64
	Aborts      atomic.Int64
	Compactions atomic.Int64
	Upgrades    atomic.Int64
	BloomSkips  atomic.Int64 // insertions that skipped the previous-version scan
	BloomScans  atomic.Int64 // edge writes that had to scan
}

// Open creates or recovers a Graph.
func Open(opts Options) (*Graph, error) {
	opts.fill()
	g := &Graph{
		opts:    opts,
		alloc:   storage.NewAllocator(storage.DefaultSmallClassMax),
		readers: mvcc.NewReaderTable(opts.Workers),
		locks:   mvcc.NewLockTable(1 << 16),
		dirty:   maint.NewDirtySet(0),
	}
	g.initObs()
	g.slots = make(chan int, opts.Workers)
	g.handles = make([]*storage.Handle, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		g.slots <- i
		g.handles[i] = g.alloc.NewHandle()
	}
	if opts.Dir != "" {
		g.ckptDirty = maint.NewDirtySet(0)
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("livegraph: %w", err)
		}
		if err := g.recover(); err != nil {
			return nil, err
		}
		g.walSeq++
		l, err := wal.Open(opts.Dir, g.walSeq, opts.Backend)
		if err != nil {
			return nil, err
		}
		// Everything replayed is durable; the committer keeps the
		// invariant GRE <= DurableEpoch from here on.
		l.SetDurableEpoch(g.epochs.ReadEpoch())
		g.instrumentWAL(l)
		g.log.Store(l)
	}
	g.commit = newCommitter(g)

	// Background maintenance: a budgeted, pressure-triggered scheduler
	// owns compaction + reclamation (internal/maint). Disabled along with
	// everything else by CompactEvery < 0.
	g.maintWorkers = 1
	if opts.CompactEvery >= 0 {
		g.maintSched = maint.New(opts.Maint.config(), maintRunner{g}, &g.maintStats)
		g.maintWorkers = g.maintSched.Config().Workers
	}
	g.maintHandles = make([]*storage.Handle, g.maintWorkers)
	for i := range g.maintHandles {
		g.maintHandles[i] = g.alloc.NewHandle()
	}
	if g.maintSched != nil {
		g.maintSched.Start()
	}
	return g, nil
}

// Close shuts the graph down. Outstanding transactions must be finished.
func (g *Graph) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	if g.maintSched != nil {
		// Drain: wait out the in-flight slice; remaining backlog is
		// abandoned with the graph.
		g.maintSched.Close()
	}
	if l := g.log.Load(); l != nil {
		return l.Close()
	}
	return nil
}

// NumVertices returns the number of vertex IDs ever allocated (including
// deleted ones).
func (g *Graph) NumVertices() int64 { return g.nextVertex.Load() }

// ReadEpoch returns the current global read epoch (GRE). On a follower
// this is the applied epoch: the newest primary commit group reflected in
// every new snapshot.
func (g *Graph) ReadEpoch() int64 { return g.epochs.ReadEpoch() }

// DurableEpoch returns the newest epoch durable in the WAL — the
// replication shipper's upper bound. On a volatile graph (no WAL) every
// published epoch is trivially "durable", so the read epoch is returned.
func (g *Graph) DurableEpoch() int64 {
	if l := g.log.Load(); l != nil {
		return l.DurableEpoch()
	}
	return g.epochs.ReadEpoch()
}

// Dir returns the graph's durable directory ("" for a volatile graph).
func (g *Graph) Dir() string { return g.opts.Dir }

// WALAppendedBytes returns the total bytes appended to the WAL since
// Open, across segment rotations (write-amplification and replication
// lag-in-bytes observability).
func (g *Graph) WALAppendedBytes() int64 {
	g.walBytesMu.Lock()
	defer g.walBytesMu.Unlock()
	n := g.walBytes
	if l := g.log.Load(); l != nil {
		n += l.AppendedBytes()
	}
	return n
}

// Follower reports whether the graph is a read replica (see SetFollower).
func (g *Graph) Follower() bool { return g.follower.Load() }

// SetFollower marks the graph a read replica: local write transactions
// are rejected with ErrFollower, leaving ApplyEpoch the only mutator, so
// the replica's epoch sequence exactly mirrors its primary's. ApplyEpoch
// sets the mark itself; SetFollower(false) is the promotion hook — after
// the replication stream has definitively stopped, a promoted replica
// accepts writes and continues the epoch sequence locally.
func (g *Graph) SetFollower(on bool) { g.follower.Store(on) }

// Stats returns a live view of engine counters.
func (g *Graph) Stats() *GraphStats { return &g.stats }

// AllocStats returns block-allocator statistics (block counts per size
// class — Figure 7b, memory footprint — §7.2).
func (g *Graph) AllocStats() storage.Stats { return g.alloc.Stats() }

// The out-of-core simulation charges accesses at 4KB-page granularity,
// mirroring how the paper's mmap-backed store faults: a block is a run of
// global arena pages (from storage.Block.Off); a newest-first partial scan
// of a hot vertex touches only its tail pages, which stay resident.

const pageBytes = 4096

// touch charges the page cache for a seek into the TEL (its header page
// and the tail page where the newest entries live).
func (g *Graph) touch(t *tel.TEL) {
	if g.opts.PageCache == nil || t == nil {
		return
	}
	first := t.FirstPage()
	g.touchPage(t, first)
	n := t.Len()
	if n > 0 {
		if tail := t.EntryPage(n - 1); tail != first {
			g.touchPage(t, tail)
		}
	}
}

// touchPage charges one global arena page.
func (g *Graph) touchPage(_ *tel.TEL, page int64) {
	g.opts.PageCache.Touch(uint64(page), pageBytes)
}

// forgetBlock drops a freed block's pages from the resident set. Pages
// shared with neighboring small blocks may be dropped too; that only
// costs an extra fault on their next access.
func (g *Graph) forgetBlock(t *tel.TEL) {
	if g.opts.PageCache == nil {
		return
	}
	for p := t.FirstPage(); p <= t.LastPage(); p++ {
		g.opts.PageCache.Forget(uint64(p))
	}
}

// entryDeadBytes approximates the garbage one invalidated edge-log entry
// leaves behind (its fixed words; property bytes are added by callers
// that know them). Feeds the dead-bytes pressure trigger — an estimate,
// not an accounting.
const entryDeadBytes = 48

// markDirty records that a vertex's blocks changed since the last
// compaction (the paper's per-worker dirty vertex set; ours is one
// lock-striped set, so concurrent writers don't serialise on a
// global mutex). dead estimates the bytes the change turned into garbage;
// it accumulates into the scheduler's dead-bytes pressure gauge.
func (g *Graph) markDirty(v VertexID, dead int64) {
	g.dirty.Mark(int64(v), dead)
	g.dirtySinceCkpt.Add(1)
	g.maintNotify()
}

// markCkptDirty records v into the checkpoint-scoped dirty journal. Must
// be called only from apply-side code (the committer's apply under
// commit.mu, ApplyEpoch under applyMu, or single-threaded recovery):
// Checkpoint drains the journal while holding both mutexes, and a mark
// from the work phase could be drained before its transaction commits —
// the change would then be missing from every delta until the next
// rebase.
func (g *Graph) markCkptDirty(v VertexID) {
	if g.ckptDirty != nil {
		g.ckptDirty.Mark(int64(v), 0)
	}
}

// CkptStats returns a live view of the incremental checkpointer's
// counters.
func (g *Graph) CkptStats() *CkptStats { return &g.ckptStats }

// DirtySinceCheckpoint reports how many vertex dirtyings have happened
// since the last completed checkpoint — the eligibility gauge for
// checkpoint cadence (a caller polling it can skip checkpoints while the
// graph is quiet and tighten them under write bursts).
func (g *Graph) DirtySinceCheckpoint() int64 { return g.dirtySinceCkpt.Load() }

// acquireSlot blocks until a worker slot is free. Slots bound concurrent
// transactions to the reader-table size.
func (g *Graph) acquireSlot() int { return <-g.slots }

// acquireSlotCtx is acquireSlot bounded by ctx: when every worker slot is
// taken and ctx is done first, it returns ctx.Err() instead of blocking
// indefinitely. Slot waits that actually block are recorded in the
// lg_commit_slot_wait_seconds histogram; the uncontended fast path pays
// nothing.
func (g *Graph) acquireSlotCtx(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	select {
	case s := <-g.slots:
		return s, nil
	default:
	}
	t0 := time.Now()
	select {
	case s := <-g.slots:
		wait := time.Since(t0)
		g.ob.slotWait.Record(wait)
		g.ob.tracer.SlowOp("core.slot_wait", wait)
		return s, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (g *Graph) releaseSlot(s int) { g.slots <- s }

// latestVertex walks the version chain for v and returns the newest version
// with ts <= tre (paper §4, vertex reads). Buffered writes of the calling
// transaction are handled by the Tx layer.
func (g *Graph) latestVertex(v VertexID, tre int64) *vertexVersion {
	for ver := g.vindex.Get(int64(v)); ver != nil; ver = ver.prev {
		if ver.ts <= tre {
			return ver
		}
	}
	return nil
}

// telFor returns the current TEL for (v, label), or nil.
func (g *Graph) telFor(v VertexID, label Label) *tel.TEL {
	ll := g.eindex.Get(int64(v))
	if ll == nil {
		return nil
	}
	e := ll.find(label)
	if e == nil {
		return nil
	}
	return e.tel.Load()
}
