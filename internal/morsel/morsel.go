// Package morsel is the shared work-distribution core of the parallel
// execution engine: it splits an index space into fixed-size morsels that
// workers claim dynamically from an atomic cursor, in the style of
// morsel-driven parallelism (Leis et al., SIGMOD 2014).
//
// Dynamic claiming is what distinguishes the engine from a static range
// split: on power-law graphs one morsel can hide a hub vertex with a
// thousand-entry adjacency list, and under out-of-core simulation a morsel
// can stall on page faults. With static partitioning the unlucky worker
// finishes last while the rest idle; with a cursor, finished workers
// immediately claim the next morsel, so the schedule load-balances itself.
//
// Run is the one place in the tree that starts morsel workers: traversal
// hops and filters, compaction slices (internal/core) and the analytics
// kernels (internal/analytics) each hand it a per-morsel body and own no
// goroutine, WaitGroup or cursor themselves.
package morsel

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultSize is the default morsel width in items. Small enough that a
// skewed frontier still splits into enough morsels to balance, large
// enough that the claim (one atomic add) is noise against the work.
const DefaultSize = 64

// SizeFor picks an adaptive morsel width for n items over a pool of the
// given width: at most max (clamped to DefaultSize when max <= 0), shrunk
// until the space splits into about four morsels per worker, floored at
// min. Oversplitting costs one atomic claim per extra morsel — noise —
// while undersplitting idles workers whenever per-item cost balloons, so
// the adaptive default errs toward fine.
func SizeFor(n, workers, min, max int) int {
	if max <= 0 || max > DefaultSize {
		max = DefaultSize
	}
	if min < 1 {
		min = 1
	}
	size := max
	if workers < 1 {
		workers = 1
	}
	if target := n / (4 * workers); target < size {
		size = target
	}
	if size < min {
		size = min
	}
	return size
}

// Cursor deals morsels of [0,n) to concurrent claimants.
type Cursor struct {
	n, size int64
	next    atomic.Int64
}

// NewCursor returns a cursor over n items in morsels of the given size
// (DefaultSize if size <= 0).
func NewCursor(n, size int) *Cursor {
	if size <= 0 {
		size = DefaultSize
	}
	return &Cursor{n: int64(n), size: int64(size)}
}

// Count returns how many morsels the cursor deals in total.
func (c *Cursor) Count() int {
	return int((c.n + c.size - 1) / c.size)
}

// Next claims the next unclaimed morsel, returning its index and item
// range [lo, hi); ok is false when the space is exhausted.
func (c *Cursor) Next() (m, lo, hi int, ok bool) {
	i := c.next.Add(1) - 1
	l := i * c.size
	if l >= c.n {
		return 0, 0, 0, false
	}
	h := l + c.size
	if h > c.n {
		h = c.n
	}
	return int(i), int(l), int(h), true
}

// Workers clamps a requested worker-pool width to the number of morsels a
// cursor deals — spawning more workers than morsels only burns goroutines.
func (c *Cursor) Workers(requested int) int {
	if m := c.Count(); requested > m {
		return m
	}
	return requested
}

// Split reports how Run executes n items in morsels of the given size
// (DefaultSize if size <= 0) on a pool of the requested width: the morsels
// it deals and the workers it runs them on — 1 being the caller's goroutine.
func Split(n, size, workers int) (morsels, started int) {
	c := NewCursor(n, size)
	return c.Count(), c.Workers(max(workers, 1))
}

// Concat reassembles per-morsel outputs, indexed by morsel, in item order.
// A lone morsel's output is returned as it is, not copied.
func Concat[T any](outs [][]T) []T {
	if len(outs) == 1 {
		return outs[0]
	}
	return slices.Concat(outs...)
}

// Stop is returned by a Run body to end the run early without failing it:
// no worker claims another morsel, and Run returns nil unless a body failed.
var Stop = errors.New("morsel: stop")

// Run deals [0,n) in morsels of the given size (DefaultSize if size <= 0)
// to at most workers goroutines and returns when all of them have. body
// receives the worker's index in [0, started), the morsel's index and its
// item range; morsel m always covers [m*size, min((m+1)*size, n)), so
// outputs indexed by m reassemble in item order, and state indexed by the
// worker index is private to one goroutine at a time.
//
// Every worker looks at ctx and the shared stop flag before each claim (a
// claimed morsel is always handed to body), so a cancelled ctx, a body
// error or a body returning Stop ends the run within one morsel per
// worker. Run returns the first error recorded — ctx's or a body's; Stop
// is not an error and never masks one.
//
// When one worker or one morsel is all there is (Split), nothing is
// started: no goroutine, WaitGroup or cursor, just body called in morsel
// order on the caller's goroutine as worker 0.
func Run(ctx context.Context, n, size, workers int, body func(w, m, lo, hi int) error) error {
	if size <= 0 {
		size = DefaultSize
	}
	morsels, started := Split(n, size, workers)
	if started <= 1 {
		for m := 0; m < morsels; m++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := body(0, m, m*size, min((m+1)*size, n)); err != nil {
				if err == Stop {
					return nil
				}
				return err
			}
		}
		return nil
	}
	var (
		cur   = NewCursor(n, size)
		stop  atomic.Bool
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	wg.Add(started)
	for w := 0; w < started; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				err := ctx.Err()
				if err == nil {
					m, lo, hi, ok := cur.Next()
					if !ok {
						return
					}
					err = body(w, m, lo, hi)
				}
				if err != nil {
					if err != Stop {
						once.Do(func() { first = err })
					}
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
