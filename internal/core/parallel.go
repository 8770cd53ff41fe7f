package core

// The morsel-driven parallel execution engine for frontier expansion.
//
// One hop of a traversal — "expand every frontier vertex one edge along a
// label" — is embarrassingly parallel across frontier vertices, and it is
// exactly the workload the paper's evaluation runs multi-threaded over
// snapshots (§7.4). The engine partitions the frontier into fixed-size
// morsels that workers claim from an atomic cursor (internal/morsel), so a
// hub vertex hiding in one morsel stalls one worker while the rest keep
// claiming; each worker expands into a private buffer through its own
// reused EdgeIter, and the only shared mutable state is:
//
//   - the dedup set: a lock-striped sparse bitset (internal/sparsebit),
//     replacing the single map a sequential hop would thread through (a
//     sequential hop of the same run uses the same set without the locks:
//     hops are barriers, so it owns the set while it runs);
//   - two atomic budgets: the next-frontier size (MaxFrontier) and the
//     result count (Limit on the final hop), so early termination is a
//     single flag every worker observes within a bounded number of edges.
//
// Worker buffers are reassembled in morsel order, which makes a parallel
// hop without Dedup/Limit byte-identical to the sequential one.

import (
	"context"
	"sync"
	"sync/atomic"

	"livegraph/internal/morsel"
	"livegraph/internal/sparsebit"
)

// stopCheckEdges bounds how many edges a worker scans between looks at the
// shared stop flag, so cancellation and budget exhaustion interrupt even a
// single enormous adjacency list cooperatively.
const stopCheckEdges = 1024

// expandParallel executes one stepOut over the frontier on a worker pool.
// keep, when non-nil, is the fused destination predicate pushed into each
// worker's TEL scans. seen is nil unless the traversal dedups; capped
// marks the final hop of a Limit-ed traversal, where production stops at
// t.limit results. countHits enables the dedup-hit counter (EXPLAIN
// annotation); it is off on plain runs so the dedup fast path stays a
// single bitset operation.
func (t *Traversal) expandParallel(ctx context.Context, r Reader, frontier []VertexID, label Label, keep func(VertexID) bool, capped bool, workers int, seen *sparsebit.Set, morselSize int, countHits bool) ([]VertexID, int64, error) {
	var keep64 func(int64) bool
	if keep != nil {
		keep64 = func(d int64) bool { return keep(VertexID(d)) }
	}
	cur := morsel.NewCursor(len(frontier), morselSize)
	outs := make([][]VertexID, cur.Count())
	var (
		produced  atomic.Int64 // results appended (Limit budget, final hop)
		grown     atomic.Int64 // next-frontier size (MaxFrontier budget)
		dedupHits atomic.Int64 // destinations dropped as already seen (countHits)
		stop      atomic.Bool
		errMu     sync.Mutex
		firstErr  error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	limit, maxF := int64(t.limit), int64(t.maxFrontier)

	var wg sync.WaitGroup
	for w := cur.Workers(workers); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			its, hasInto := r.(edgeIterSource)
			var it EdgeIter
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				m, lo, hi, ok := cur.Next()
				if !ok {
					return
				}
				var buf []VertexID
				for _, v := range frontier[lo:hi] {
					if stop.Load() {
						outs[m] = buf
						return
					}
					itp := &it
					if hasInto {
						its.neighborsInto(itp, v, label)
					} else {
						itp = r.Neighbors(v, label)
					}
					scanned := 0
					for itp.advance(keep64) {
						if scanned++; scanned%stopCheckEdges == 0 {
							if stop.Load() {
								outs[m] = buf
								return
							}
							if err := ctx.Err(); err != nil {
								outs[m] = buf
								fail(err)
								return
							}
						}
						d := itp.Dst()
						if seen != nil && seen.TestAndSet(int64(d)) {
							if countHits {
								dedupHits.Add(1)
							}
							continue
						}
						if capped {
							// Claim the result slot before charging the
							// frontier budget: results the limit discards
							// must not count toward MaxFrontier (the
							// sequential engine stops at the limit before
							// the frontier can outgrow it).
							n := produced.Add(1)
							if n > limit {
								outs[m] = buf
								stop.Store(true)
								return
							}
							if maxF > 0 && grown.Add(1) > maxF {
								outs[m] = buf
								fail(ErrFrontierTooLarge)
								return
							}
							buf = append(buf, d)
							if n == limit {
								outs[m] = buf
								stop.Store(true)
								return
							}
							continue
						}
						if maxF > 0 && grown.Add(1) > maxF {
							outs[m] = buf
							fail(ErrFrontierTooLarge)
							return
						}
						buf = append(buf, d)
					}
				}
				outs[m] = buf
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, dedupHits.Load(), firstErr
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	next := make([]VertexID, 0, total)
	for _, o := range outs {
		next = append(next, o...)
	}
	return next, dedupHits.Load(), nil
}
