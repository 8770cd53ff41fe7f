package core

import (
	"sync/atomic"
	"time"

	"livegraph/internal/obs"
	"livegraph/internal/wal"
)

// ObsOptions configures the engine's observability layer (internal/obs):
// the instrument registry behind GET /metrics and /v1/stats, the sampling
// tracer behind /v1/traces, and the slow-op log.
type ObsOptions struct {
	// Registry receives the graph's instruments. Nil creates a fresh
	// per-graph registry (retrievable via Graph.Obs). Sharing one registry
	// across graphs works — scrape-time callbacks are replaced on
	// re-registration, so the newest graph wins the gauge names.
	Registry *obs.Registry

	// TraceSampleRate is the fraction of root spans recorded, in (0, 1].
	// 0 selects the default (1/64); negative disables tracing and the
	// slow-op log entirely.
	TraceSampleRate float64

	// SlowOpThreshold: operations at or above this duration are captured
	// in the slow-op log with their span tree even when unsampled. 0
	// selects the default (100ms); negative disables slow-op capture.
	// The recent-trace ring holds obs.TracerOptions' default, 256 traces.
	SlowOpThreshold time.Duration
}

// CkptStats tracks the incremental checkpointer; Checkpoint writes it and
// initObs registers it as the lg_ckpt_* instruments. All fields are
// atomic; the zero value is ready.
type CkptStats struct {
	Fulls  atomic.Int64 // full (base/rebase) snapshots written
	Deltas atomic.Int64 // delta checkpoints written

	LastNanos atomic.Int64 // wall time of the most recent checkpoint
	LastBytes atomic.Int64 // bytes the most recent checkpoint streamed
	ChainLen  atomic.Int64 // delta-chain length behind the current base

	PruneErrors atomic.Int64 // Backend.Remove failures while pruning (segments, snapshots, deltas)
}

// graphObs bundles the graph's hot-path instruments; every graph has one.
// The tracer is nil when TraceSampleRate is negative, and a nil tracer is
// inert, so recording sites never branch on it.
type graphObs struct {
	tracer *obs.Tracer

	commitLatency *obs.Histogram // submit → group durable+applied, per tx
	slotWait      *obs.Histogram // worker-slot waits that actually blocked
	walAppend     *obs.Histogram // commit group: WAL batch write phase
	walFsync      *obs.Histogram // commit group: fsync barrier fan-out
	commitApply   *obs.Histogram // commit group: in-memory apply phase
	travRun       *obs.Histogram // whole traversal executions
	travHop       *obs.Histogram // single hop expansions
	ckptFull      *obs.Histogram // full checkpoint wall time
	ckptDelta     *obs.Histogram // delta checkpoint wall time
	maintSlice    *obs.Histogram // budgeted maintenance slices
	replApply     *obs.Histogram // replication ApplyEpoch calls
	revBuild      *obs.Histogram // reverse hint index builds and folds
}

// instrumentWAL attaches the graph's append/fsync histograms to a freshly
// opened WAL segment (Open and checkpoint rotation), so the commit
// pipeline's write and fsync-barrier phases are timed separately.
func (g *Graph) instrumentWAL(l *wal.Log) {
	l.Instrument(g.ob.walAppend, g.ob.walFsync)
}

// Obs returns the graph's instrument registry (never nil). All engine
// counters are readable here via one Snapshot, and GET /metrics is its
// Prometheus exposition.
func (g *Graph) Obs() *obs.Registry { return g.obsReg }

// Tracer returns the graph's span tracer, or nil when tracing is
// disabled (a negative TraceSampleRate). A nil tracer is safe to call.
func (g *Graph) Tracer() *obs.Tracer { return g.ob.tracer }

// initObs builds the registry, hot-path instruments and scrape-time
// gauges. Called once from Open before any commits.
func (g *Graph) initObs() {
	g.obsStart = time.Now()
	g.obsReg = g.opts.Obs.Registry
	if g.obsReg == nil {
		g.obsReg = obs.NewRegistry()
	}
	r := g.obsReg

	g.ob = &graphObs{
		commitLatency: r.Histogram("lg_commit_latency_seconds", "transaction commit latency: submit to durable+applied"),
		slotWait:      r.Histogram("lg_commit_slot_wait_seconds", "worker-slot acquisition waits (blocking acquisitions only)"),
		walAppend:     r.Histogram("lg_wal_append_seconds", "commit group WAL batch write phase"),
		walFsync:      r.Histogram("lg_wal_fsync_seconds", "commit group fsync barrier"),
		commitApply:   r.Histogram("lg_commit_apply_seconds", "commit group in-memory apply phase"),
		travRun:       r.Histogram("lg_traversal_seconds", "whole traversal executions"),
		travHop:       r.Histogram("lg_traversal_hop_seconds", "single traversal hop expansions"),
		ckptFull:      r.Histogram("lg_ckpt_full_seconds", "full checkpoint wall time"),
		ckptDelta:     r.Histogram("lg_ckpt_delta_seconds", "delta checkpoint wall time"),
		maintSlice:    r.Histogram("lg_maint_slice_seconds", "budgeted maintenance slice wall time"),
		replApply:     r.Histogram("lg_repl_apply_seconds", "replication ApplyEpoch wall time"),
		revBuild:      r.Histogram("lg_rev_build_seconds", "reverse hint index build and fold wall time"),
	}
	if g.opts.Obs.TraceSampleRate >= 0 {
		g.ob.tracer = obs.NewTracer(obs.TracerOptions{
			SampleRate:      g.opts.Obs.TraceSampleRate,
			SlowOpThreshold: g.opts.Obs.SlowOpThreshold,
		})
	}

	ctr := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	gauge := func(name, help string, fn func() float64) { r.GaugeFunc(name, help, fn) }

	// Engine counters (GraphStats).
	ctr("lg_core_commits_total", "committed write transactions", &g.stats.Commits)
	ctr("lg_core_aborts_total", "aborted write transactions", &g.stats.Aborts)
	ctr("lg_core_compactions_total", "vertex compactions", &g.stats.Compactions)
	ctr("lg_core_upgrades_total", "TEL block upgrades", &g.stats.Upgrades)
	ctr("lg_core_bloom_skips_total", "edge inserts that skipped the previous-version scan", &g.stats.BloomSkips)
	gauge("lg_core_vertices", "vertex IDs allocated (including deleted)", func() float64 { return float64(g.NumVertices()) })
	gauge("lg_core_read_epoch", "global read epoch", func() float64 { return float64(g.ReadEpoch()) })
	gauge("lg_core_durable_epoch", "newest epoch durable in the WAL", func() float64 { return float64(g.DurableEpoch()) })
	gauge("lg_core_uptime_seconds", "seconds since Open", func() float64 { return time.Since(g.obsStart).Seconds() })
	gauge("lg_alloc_blocks", "live blocks in the allocator", func() float64 { return float64(g.AllocStats().AllocatedBlocks) })
	// A block is one region of words, entries and properties together: 8
	// bytes a word, both live and reserved.
	gauge("lg_alloc_bytes", "live bytes in the allocator: blocks handed out, entries and properties", func() float64 { return float64(g.AllocStats().AllocatedWords * 8) })
	gauge("lg_alloc_reserved_bytes", "bytes the allocator has reserved from the runtime: live, recycled and not yet carved", func() float64 { return float64(g.AllocStats().SlabWords * 8) })
	ctr("lg_rev_builds_total", "reverse hint index builds and folds", &g.revStats.builds)
	gauge("lg_rev_main_hints", "hints in the built reverse indexes' CSR runs", func() float64 { return float64(g.revStats.mainHints.Load()) })
	gauge("lg_rev_overlay_hints", "hints written beside the CSR runs since their builds", func() float64 { return float64(g.revStats.overlayHints.Load()) })
	r.CounterFunc("lg_wal_appended_bytes_total", "bytes appended to the WAL across rotations",
		func() float64 { return float64(g.WALAppendedBytes()) })

	// Maintenance engine: its own counters, then the engine-side backlog.
	g.maintStats.Register(r)
	gauge("lg_maint_dirty_pending", "vertices waiting in the maintenance dirty set",
		func() float64 { d, _ := g.MaintPressure(); return float64(d) })
	gauge("lg_maint_dead_bytes_est", "estimated dead bytes awaiting compaction",
		func() float64 { _, d := g.MaintPressure(); return float64(d) })

	// Incremental checkpointer.
	ctr("lg_ckpt_fulls_total", "full (base/rebase) snapshots written", &g.ckptStats.Fulls)
	ctr("lg_ckpt_deltas_total", "delta checkpoints written", &g.ckptStats.Deltas)
	ctr("lg_ckpt_prune_errors_total", "Backend.Remove failures while pruning", &g.ckptStats.PruneErrors)
	gauge("lg_ckpt_last_seconds", "wall time of the most recent checkpoint",
		func() float64 { return float64(g.ckptStats.LastNanos.Load()) / 1e9 })
	gauge("lg_ckpt_last_bytes", "bytes the most recent checkpoint streamed",
		func() float64 { return float64(g.ckptStats.LastBytes.Load()) })
	gauge("lg_ckpt_chain_len", "delta-chain length behind the current base",
		func() float64 { return float64(g.ckptStats.ChainLen.Load()) })
	gauge("lg_ckpt_dirty_since", "vertex dirtyings since the last completed checkpoint",
		func() float64 { return float64(g.DirtySinceCheckpoint()) })
}
