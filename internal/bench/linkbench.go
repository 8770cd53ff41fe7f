package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"livegraph/internal/baseline/btree"
	"livegraph/internal/baseline/lsmt"
	"livegraph/internal/core"
	"livegraph/internal/disk"
	"livegraph/internal/iosim"
	"livegraph/internal/storage"
	"livegraph/internal/workload"
	"livegraph/internal/workload/kron"
	"livegraph/internal/workload/linkbench"
)

// durableStore wraps a baseline store so its writes pay for persistence
// on the same bottom as LiveGraph's WAL: each write appends a record to a
// log segment opened through disk.NewSim(dev, disk.NewReal()), and every
// syncWindow-th write syncs it — a real msync, then the device model's sync
// (RocksDB and LMDB both group-commit their logs). A writer that arrives
// during a sync waits for it, as it would behind a log's group leader.
type durableStore struct {
	linkbench.Store
	dev    *iosim.Device
	mu     sync.Mutex
	log    disk.LogFile
	writes int
}

const syncWindow = 32

var writeRecord [96]byte

func newDurableStore(s linkbench.Store, path string, dev *iosim.Device) *durableStore {
	log, err := disk.NewSim(dev, disk.NewReal()).OpenLog(path, disk.LogGeometry{Seq: 1, Shards: 1})
	if err != nil {
		panic(err)
	}
	return &durableStore{Store: s, dev: dev, log: log}
}

func (d *durableStore) noteWrite() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.log.Write(writeRecord[:]); err != nil {
		panic(err)
	}
	if d.writes++; d.writes%syncWindow == 0 {
		if err := d.log.Sync(); err != nil {
			panic(err)
		}
	}
}

func (d *durableStore) AddNode(data []byte) int64 {
	id := d.Store.AddNode(data)
	d.noteWrite()
	return id
}

func (d *durableStore) UpdateNode(id int64, data []byte) bool {
	ok := d.Store.UpdateNode(id, data)
	d.noteWrite()
	return ok
}

func (d *durableStore) AddLink(src, dst int64, props []byte) {
	d.Store.AddLink(src, dst, props)
	d.noteWrite()
}

func (d *durableStore) DeleteLink(src, dst int64) bool {
	ok := d.Store.DeleteLink(src, dst)
	d.noteWrite()
	return ok
}

// oocStore additionally charges a simulated page cache for the pages each
// operation touches, using a per-structure access model (see Tab 5/6
// discussion: LiveGraph touches its one TEL block, a B+ tree touches the
// leaf holding the src range, an LSMT read consults every run).
type oocStore struct {
	linkbench.Store
	cache *iosim.PageCache
	pages func(src int64) []uint64
}

const oocPageBytes = 4096

func (o *oocStore) touch(src int64) {
	for _, p := range o.pages(src) {
		o.cache.Touch(p, oocPageBytes)
	}
}

func (o *oocStore) GetNode(id int64) ([]byte, bool) { o.touch(id); return o.Store.GetNode(id) }
func (o *oocStore) UpdateNode(id int64, data []byte) bool {
	o.touch(id)
	return o.Store.UpdateNode(id, data)
}
func (o *oocStore) GetLink(src, dst int64) ([]byte, bool) {
	o.touch(src)
	return o.Store.GetLink(src, dst)
}
func (o *oocStore) AddLink(src, dst int64, props []byte) {
	o.touch(src)
	o.Store.AddLink(src, dst, props)
}
func (o *oocStore) DeleteLink(src, dst int64) bool { o.touch(src); return o.Store.DeleteLink(src, dst) }
func (o *oocStore) ScanLinks(src int64, limit int) int {
	o.touch(src)
	return o.Store.ScanLinks(src, limit)
}
func (o *oocStore) CountLinks(src int64) int { o.touch(src); return o.Store.CountLinks(src) }

// btreePages: the leaf page covering src's key range plus the lowest
// inner-node page on the path (top tree levels are hot and assumed
// resident, the bottom inner level only partially fits — the logarithmic
// descent the paper's Table 1 charges B+ trees for).
func btreePages(src int64) []uint64 {
	return []uint64{1<<40 | uint64(src>>3), 3<<40 | uint64(src>>9)}
}

// lsmtPages: one page per sorted run (seeks with only the src half of the
// key must consult every run) plus the memtable (resident).
func lsmtPages(ls *lsmt.Store) func(src int64) []uint64 {
	return func(src int64) []uint64 {
		n := ls.RunCount()
		if n == 0 {
			return nil
		}
		pages := make([]uint64, n)
		for i := 0; i < n; i++ {
			pages[i] = 2<<40 | uint64(i)<<24 | uint64(src>>6)
		}
		return pages
	}
}

// System bundles a system-under-test for the latency tables.
type System struct {
	Name  string
	Store linkbench.Store
	Graph *core.Graph // non-nil for LiveGraph (stats, close)
}

// BuildSystems constructs LiveGraph, RocksDB(LSMT) and LMDB(B+tree) loaded
// with the same base graph, all durable in one temporary directory (which
// the returned closer removes), each on its own device of the given
// profile; ooc enables the paged-memory simulation with residentFrac of
// the estimated footprint, its faults charged to the same device (a fault
// does not queue behind the device's syncs: iosim.Device.ReadFault).
//
// All three pay the same two costs per log sync — a real msync of an
// mmap'd segment and the device model's sync — and differ only in when
// they sync: LiveGraph once per commit group (a write that commits alone
// syncs alone), the baselines once per syncWindow writes (durableStore).
func BuildSystems(cfg Config, prof iosim.Profile, ooc bool) ([]System, []kron.Edge, func()) {
	bg := linkbench.BaseGraph{Scale: cfg.LBScale, AvgDegree: 4, Seed: 42}
	var systems []System
	root, err := tempDir()
	if err != nil {
		panic(err)
	}
	var closers []func()

	dir := filepath.Join(root, "livegraph")
	dev := iosim.NewDevice(prof)
	opts := core.Options{Dir: dir, Backend: disk.NewSim(dev, disk.NewReal()), Workers: 512}
	var lgCache *iosim.PageCache
	if ooc {
		// Build with an effectively unlimited resident set; the real cap
		// is applied below once the footprint is known.
		lgCache = iosim.NewPageCache(dev, 1<<62)
		opts.PageCache = lgCache
	}
	g, err := core.Open(opts)
	if err != nil {
		panic(err)
	}
	closers = append(closers, func() { g.Close() })
	lgStore := &linkbench.LiveGraphStore{G: g}
	edges := linkbench.Build(lgStore, bg, 64)
	systems = append(systems, System{"LiveGraph", lgStore, g})

	// The paper caps every system at the same absolute resident size (its
	// 4GB cgroup ≈ 16% of LiveGraph's measured footprint).
	st := g.AllocStats()
	residentCap := int64(float64(st.AllocatedWords*8) * cfg.OOCFrac)
	if ooc {
		lgCache.SetCap(residentCap)
	}

	// baseline loads a stand-in that logs like a durableStore on its own
	// device and, out of core, pages through a cache of the same cap.
	baseline := func(name string, s linkbench.Store, pages func(src int64) []uint64) {
		dev := iosim.NewDevice(prof)
		ds := newDurableStore(s, filepath.Join(root, name+".log"), dev)
		closers = append(closers, func() { ds.log.Close() })
		var store linkbench.Store = ds
		if ooc {
			store = &oocStore{Store: ds, cache: iosim.NewPageCache(dev, residentCap), pages: pages}
		}
		linkbench.Build(store, bg, 64)
		systems = append(systems, System{name, store, nil})
	}
	// RocksDB stand-in. The memtable is sized so the base graph spills
	// into sorted runs at any scale (at paper scale the default memtable
	// spills too; at laptop scale it would hold the whole graph and hide
	// LSMT's multi-run seeks).
	memLimit := (1 << cfg.LBScale) / 4
	if memLimit < 1024 {
		memLimit = 1024
	}
	ls := lsmt.NewWithMemLimit(memLimit)
	baseline("RocksDB", &linkbench.BaselineStore{Edges: ls}, lsmtPages(ls))
	baseline("LMDB", &linkbench.BaselineStore{Edges: btree.New()}, btreePages)

	return systems, edges, func() {
		for _, c := range closers {
			c()
		}
		os.RemoveAll(root)
	}
}

// LinkBenchLatency reproduces Tables 3–6: mean/p99/p999 latency per system
// on both device profiles.
func LinkBenchLatency(_ context.Context, cfg Config, ooc bool, tao bool) {
	mix := linkbench.DFLT
	tbl := "Table 4"
	if tao {
		mix = linkbench.TAO
		tbl = "Table 3"
	}
	mem := "in memory"
	if ooc {
		mem = "out of core"
		if tao {
			tbl = "Table 5"
		} else {
			tbl = "Table 6"
		}
	}
	header(cfg, fmt.Sprintf("%s: LinkBench %s latency %s (ms)", tbl, mix.Name, mem))
	row(cfg, "%-8s %-12s %10s %10s %10s %12s", "device", "system", "mean", "p99", "p999", "reqs/s")
	for _, prof := range []iosim.Profile{iosim.Optane, iosim.NAND} {
		systems, edges, done := BuildSystems(cfg, prof, ooc)
		for _, s := range systems {
			res := linkbench.Run(s.Store, edges, linkbench.Config{
				Mix: mix, Clients: cfg.LBClients, Requests: cfg.LBRequests, Seed: 7,
			})
			lat := res.Hist.Snapshot()
			row(cfg, "%-8s %-12s %10s %10s %10s %12.0f", prof.Name, s.Name,
				workload.Ms(lat.Mean()), workload.Ms(lat.Quantile(0.99)),
				workload.Ms(lat.Quantile(0.999)), res.Throughput())
		}
		done()
	}
}

// ThroughputSweep reproduces Figures 5 (TAO) and 6 (DFLT): throughput and
// mean latency as the client count grows, in-memory and out-of-core on the
// Optane profile.
func ThroughputSweep(_ context.Context, cfg Config, tao bool) {
	mix := linkbench.DFLT
	fig := "Figure 6"
	if tao {
		mix = linkbench.TAO
		fig = "Figure 5"
	}
	header(cfg, fmt.Sprintf("%s: %s throughput/latency vs clients (Optane)", fig, mix.Name))
	row(cfg, "%-10s %-12s %8s %14s %12s", "memory", "system", "clients", "reqs/s", "mean ms")
	for _, ooc := range []bool{false, true} {
		mem := "in-mem"
		if ooc {
			mem = "ooc"
		}
		for clients := 1; clients <= cfg.LBClients*4; clients *= 4 {
			systems, edges, done := BuildSystems(cfg, iosim.Optane, ooc)
			for _, s := range systems {
				res := linkbench.Run(s.Store, edges, linkbench.Config{
					Mix: mix, Clients: clients, Requests: cfg.LBRequests / clients * cfg.LBClients, Seed: 11,
				})
				lat := res.Hist.Snapshot()
				row(cfg, "%-10s %-12s %8d %14.0f %12s", mem, s.Name, clients,
					res.Throughput(), workload.Ms(lat.Mean()))
			}
			done()
		}
	}
}

// Fig7a reproduces Figure 7a: LiveGraph-only scalability for TAO and DFLT
// against the ideal linear line.
func Fig7a(_ context.Context, cfg Config) {
	header(cfg, "Figure 7a: LiveGraph scalability (reqs/s vs clients)")
	row(cfg, "%-6s %8s %14s %14s %14s", "mix", "clients", "reqs/s", "ideal", "efficiency")
	for _, mix := range []linkbench.Mix{linkbench.TAO, linkbench.DFLT} {
		var base float64
		for clients := 1; clients <= cfg.LBClients*4; clients *= 2 {
			g, err := core.Open(core.Options{Workers: 1024})
			if err != nil {
				panic(err)
			}
			store := &linkbench.LiveGraphStore{G: g}
			edges := linkbench.Build(store, linkbench.BaseGraph{Scale: cfg.LBScale, AvgDegree: 4, Seed: 42}, 64)
			res := linkbench.Run(store, edges, linkbench.Config{
				Mix: mix, Clients: clients, Requests: cfg.LBRequests, Seed: 3,
			})
			g.Close()
			thpt := res.Throughput()
			if clients == 1 {
				base = thpt
			}
			ideal := base * float64(clients)
			row(cfg, "%-6s %8d %14.0f %14.0f %13.1f%%", mix.Name, clients, thpt, ideal, 100*thpt/ideal)
		}
	}
}

// Fig7b reproduces Figure 7b: the TEL block-size distribution after a DFLT
// run, which mirrors the power-law degree distribution.
func Fig7b(_ context.Context, cfg Config) {
	header(cfg, "Figure 7b: TEL block size distribution after DFLT")
	g, err := core.Open(core.Options{})
	if err != nil {
		panic(err)
	}
	defer g.Close()
	store := &linkbench.LiveGraphStore{G: g}
	edges := linkbench.Build(store, linkbench.BaseGraph{Scale: cfg.LBScale, AvgDegree: 4, Seed: 42}, 64)
	linkbench.Run(store, edges, linkbench.Config{Mix: linkbench.DFLT, Clients: cfg.LBClients, Requests: cfg.LBRequests, Seed: 5})
	stats := g.AllocStats()
	row(cfg, "%-14s %12s", "block size", "count")
	for class, n := range stats.ClassCounts {
		if n == 0 {
			continue
		}
		row(cfg, "%-14s %12d", fmtBytes(int64(storage.WordCap(class)*8)), n)
	}
	row(cfg, "allocated: %s in %d blocks, recycled pool: %s",
		fmtBytes(stats.AllocatedWords*8), stats.AllocatedBlocks, fmtBytes(stats.RecycledWords*8))
}

// MemFootprint reproduces the §7.2 memory-consumption study: footprint with
// default compaction vs compaction disabled (paper: +33.7% uncompacted).
func MemFootprint(_ context.Context, cfg Config) {
	header(cfg, "§7.2: memory footprint, compaction on vs off")
	run := func(compactEvery int) int64 {
		g, err := core.Open(core.Options{CompactEvery: compactEvery, Workers: 256})
		if err != nil {
			panic(err)
		}
		defer g.Close()
		store := &linkbench.LiveGraphStore{G: g}
		edges := linkbench.Build(store, linkbench.BaseGraph{Scale: cfg.LBScale, AvgDegree: 4, Seed: 42}, 64)
		linkbench.Run(store, edges, linkbench.Config{Mix: linkbench.DFLT, Clients: cfg.LBClients, Requests: cfg.LBRequests, Seed: 5})
		g.CompactNow() // drain the deferred pool for a stable reading
		s := g.AllocStats()
		return s.AllocatedWords * 8
	}
	withC := run(1024)
	withoutC := run(-1)
	row(cfg, "%-24s %12s", "compaction every 1024", fmtBytes(withC))
	row(cfg, "%-24s %12s", "compaction off", fmtBytes(withoutC))
	row(cfg, "uncompacted overhead: %+.1f%%", 100*float64(withoutC-withC)/float64(withC))
}

// Fig8 reproduces Figure 8: throughput as the write ratio grows from 25% to
// 100%, LiveGraph vs RocksDB, in-memory (Optane) and out-of-core (both
// devices).
func Fig8(_ context.Context, cfg Config) {
	header(cfg, "Figure 8: LinkBench throughput vs write ratio")
	row(cfg, "%-10s %-8s %-12s %8s %14s", "memory", "device", "system", "write%", "reqs/s")
	for _, env := range []struct {
		ooc  bool
		prof iosim.Profile
	}{{false, iosim.Optane}, {true, iosim.Optane}, {true, iosim.NAND}} {
		mem := "in-mem"
		if env.ooc {
			mem = "ooc"
		}
		for _, wr := range []float64{0.25, 0.50, 0.75, 1.00} {
			systems, edges, done := BuildSystems(cfg, env.prof, env.ooc)
			for _, s := range systems {
				if s.Name == "LMDB" {
					continue // Figure 8 compares the DFLT winners
				}
				res := linkbench.Run(s.Store, edges, linkbench.Config{
					Mix: linkbench.WriteRatioMix(wr), Clients: cfg.LBClients, Requests: cfg.LBRequests, Seed: 13,
				})
				row(cfg, "%-10s %-8s %-12s %7.0f%% %14.0f", mem, env.prof.Name, s.Name, wr*100, res.Throughput())
			}
			done()
		}
	}
}

// Ckpt measures the incremental checkpointer: one full dump of the whole
// LinkBench graph as the baseline, then a dirty-fraction sweep — mutate
// f·|V| distinct vertices, checkpoint, and compare the delta's latency
// and bytes against the full dump. The point under test is that delta
// checkpoint cost scales with the dirty-vertex count, not graph size
// (the acceptance bar: ≥5x faster than the full dump at ≤10% dirty).
func Ckpt(ctx context.Context, cfg Config) {
	header(cfg, "incremental checkpointing: full baseline vs delta")
	dir, err := tempDir()
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	g, err := core.Open(core.Options{Dir: dir, Workers: 512,
		// The sweep goes to 25% dirty; a 0.5 rebase threshold keeps every
		// sweep point on the delta path while still exercising realistic
		// triggers.
		Ckpt: core.CkptOptions{RebaseFraction: 0.5, MaxChain: 64}})
	if err != nil {
		panic(err)
	}
	defer g.Close()
	store := &linkbench.LiveGraphStore{G: g}
	linkbench.Build(store, linkbench.BaseGraph{Scale: cfg.LBScale, AvgDegree: 4, Seed: 42}, 64)
	nv := g.NumVertices()

	measure := func() (time.Duration, int64) {
		t0 := time.Now()
		if err := g.Checkpoint(); err != nil {
			panic(err)
		}
		return time.Since(t0), g.CkptStats().LastBytes.Load()
	}
	// The first checkpoint is always the full base.
	fullDur, fullBytes := measure()
	row(cfg, "%-14s %10s %10s %10s %10s", "checkpoint", "dirty", "latency", "bytes", "speedup")
	row(cfg, "%-14s %9.0f%% %10v %10s %10s", "full", 100.0,
		fullDur.Round(time.Millisecond), fmtBytes(fullBytes), "1.0x")

	props := []byte("delta-sweep-touch")
	for _, frac := range []float64{0.01, 0.05, 0.10, 0.25} {
		if ctx.Err() != nil {
			return
		}
		dirtyN := int64(float64(nv) * frac)
		if dirtyN < 1 {
			dirtyN = 1
		}
		// Touch dirtyN distinct vertices (one edge upsert each), batched
		// into transactions so the setup isn't dominated by commit fsyncs.
		for touched := int64(0); touched < dirtyN; {
			tx, err := g.Begin()
			if err != nil {
				panic(err)
			}
			for b := 0; b < 512 && touched < dirtyN; b++ {
				// Odd-multiplier scramble: distinct vertices (a bijection
				// mod the power-of-two vertex count) spread across the ID
				// space, so the dirty set samples the degree distribution
				// instead of concentrating on the low-ID hubs.
				src := core.VertexID((touched * 2654435761) % nv)
				if err := tx.AddEdge(src, 0, core.VertexID(nv+touched), props); err != nil {
					panic(err)
				}
				touched++
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}
		deltasBefore := g.CkptStats().Deltas.Load()
		dur, bytes := measure()
		if g.CkptStats().Deltas.Load() == deltasBefore {
			row(cfg, "%-14s %9.0f%% checkpoint rebased instead of writing a delta", "delta", frac*100)
			continue
		}
		speedup := float64(fullDur) / float64(dur)
		row(cfg, "%-14s %9.0f%% %10v %10s %9.1fx", "delta", frac*100,
			dur.Round(time.Millisecond), fmtBytes(bytes), speedup)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
