package core

// Delta checkpoints: instead of re-dumping the whole graph every time,
// Checkpoint drains the checkpoint-scoped dirty journal (the set of
// vertices changed since the last completed checkpoint) and streams only
// those vertices into a `ckpt-E.delta` file chained from the last full
// snapshot. Recovery loads the base snapshot and replays the delta chain
// in order; a periodic rebase (chain length or dirty-fraction trigger)
// rewrites a fresh full snapshot and prunes the chain, bounding both
// recovery time and the cost of carrying deleted state forward.
//
// A delta record is the vertex's complete state at the delta's epoch —
// payload, every label, every live edge — not an op log. Loading one
// therefore starts by erasing whatever the base (or an earlier delta)
// said about the vertex: full per-vertex replacement is what lets a
// delta express deletions without a tombstone grammar, and what makes
// chain replay order-insensitive per vertex (last delta wins).

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"livegraph/internal/maint"
	"livegraph/internal/obs"
)

var deltaMagic = []byte("LGDLT1\n")

// CkptOptions tunes the incremental checkpointer (Options.Ckpt).
type CkptOptions struct {
	// RebaseFraction is the dirty-fraction rebase trigger: when at least
	// this fraction of all vertices changed since the last checkpoint, a
	// delta would approach the size of a full snapshot while still paying
	// chain-replay cost at recovery — so a fresh full snapshot is written
	// instead. Defaults to 0.25; values above 1 are clamped to 1 (rebase
	// only on the chain-length trigger).
	RebaseFraction float64

	// MaxChain caps how many deltas may hang off one base snapshot before
	// a rebase is forced; recovery replays the whole chain, so this bounds
	// recovery time. Defaults to 8.
	MaxChain int

	// DisableDelta forces every checkpoint to be a full snapshot (the
	// pre-incremental behaviour).
	DisableDelta bool
}

func (o *CkptOptions) fill() {
	if o.RebaseFraction <= 0 {
		o.RebaseFraction = 0.25
	}
	if o.RebaseFraction > 1 {
		o.RebaseFraction = 1
	}
	if o.MaxChain <= 0 {
		o.MaxChain = 8
	}
}

func deltaFileName(epoch int64) string {
	return fmt.Sprintf("ckpt-%d.delta", epoch)
}

// countingWriter counts the bytes streamed through it so the checkpointer
// can report exactly what each full or delta dump cost (ckpt_last_bytes).
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeDelta streams the dirty vertices' state at the snapshot's epoch to
// path. prevEpoch names the chain element this delta extends (the base
// snapshot's epoch for the first delta, the preceding delta's epoch after
// that); the loader verifies the chain links so a stale or reordered delta
// file can never be replayed. Header: baseEpoch, prevEpoch, epoch,
// nextVertexID.
func (g *Graph) writeDelta(path string, baseEpoch, prevEpoch, epoch, nv int64, snap *Snapshot, drained []maint.Dirty) (int64, error) {
	// Sorted ascending: deterministic output (the recovery-equivalence
	// tests diff delta files) and sequential vindex access.
	ids := make([]int64, len(drained))
	for i, d := range drained {
		ids[i] = d.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// A transaction may write edges from a source ID it never allocated,
	// which the frontier nv does not cover. The header's does, so the
	// loader's bound (every record ID below nextVertexID) holds and
	// recovery raises the frontier past the vertex, as WAL replay of the
	// same operation would.
	if n := len(ids); n > 0 && ids[n-1] >= nv {
		nv = ids[n-1] + 1
	}
	return g.writeCkptFile(path, deltaMagic, []int64{baseEpoch, prevEpoch, epoch, nv}, "delta-tmp", snap, ids)
}

// pruneCheckpointFiles removes every ckpt-* file (snapshots and deltas)
// the given meta does not reference. Used after a successful checkpoint
// and by recovery's sweep: a crash between a file landing durably and the
// meta swap — or mid-prune — leaves unreferenced files behind, and a
// later checkpoint at the same epoch must not collide with them.
func (g *Graph) pruneCheckpointFiles(baseName string, deltaEpochs []int64) {
	keep := map[string]bool{}
	if baseName != "" {
		keep[baseName] = true
	}
	for _, de := range deltaEpochs {
		keep[deltaFileName(de)] = true
	}
	for _, pat := range []string{"ckpt-*.snap", "ckpt-*.delta"} {
		matches, _ := filepath.Glob(filepath.Join(g.opts.Dir, pat))
		for _, m := range matches {
			if keep[filepath.Base(m)] {
				continue
			}
			g.pruneFile(m)
		}
	}
}

// pruneFile removes one superseded file. A failure is counted
// (ckpt_prune_errors) and logged with the path that refused to go away,
// never silently dropped: the file is garbage, but a disk that refuses
// unlinks is something an operator reading /v1/traces?slow=1 needs to see.
func (g *Graph) pruneFile(path string) {
	if err := g.opts.Backend.Remove(path); err != nil {
		g.ckptStats.PruneErrors.Add(1)
		g.ob.tracer.ErrorOp("ckpt.prune",
			obs.String("path", path), obs.String("error", err.Error()))
	}
}
