package morsel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCursorCoversExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, size int }{
		{0, 64}, {1, 64}, {63, 64}, {64, 64}, {65, 64}, {1000, 64}, {1000, 1}, {7, 3},
	} {
		c := NewCursor(tc.n, tc.size)
		covered := make([]bool, tc.n)
		morsels := 0
		for {
			m, lo, hi, ok := c.Next()
			if !ok {
				break
			}
			morsels++
			if hi <= lo || hi > tc.n {
				t.Fatalf("n=%d size=%d: bad range [%d,%d)", tc.n, tc.size, lo, hi)
			}
			_ = m
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("n=%d size=%d: item %d dealt twice", tc.n, tc.size, i)
				}
				covered[i] = true
			}
		}
		if morsels != c.Count() {
			t.Fatalf("n=%d size=%d: dealt %d morsels, Count()=%d", tc.n, tc.size, morsels, c.Count())
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("n=%d size=%d: item %d never dealt", tc.n, tc.size, i)
			}
		}
	}
}

func TestCursorConcurrent(t *testing.T) {
	const n = 100_000
	c := NewCursor(n, 17)
	var total, claims [8]int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				_, lo, hi, ok := c.Next()
				if !ok {
					return
				}
				total[w] += int64(hi - lo)
				claims[w]++
			}
		}(w)
	}
	wg.Wait()
	var sum int64
	for _, s := range total {
		sum += s
	}
	if sum != n {
		t.Fatalf("workers covered %d items, want %d", sum, n)
	}
}

func TestWorkersClamp(t *testing.T) {
	c := NewCursor(100, 64) // 2 morsels
	if got := c.Workers(8); got != 2 {
		t.Fatalf("Workers(8) over 2 morsels = %d", got)
	}
	if got := c.Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
}

// TestRunDealsEveryIndexOnce: whatever the split, every item is handed to
// body exactly once, morsel m is [m*size, min((m+1)*size, n)), and worker
// indices stay below what Split reports.
func TestRunDealsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, size, workers int }{
		{0, 16, 4}, {1, 16, 4}, {16, 16, 4}, {17, 16, 8}, {1000, 16, 1}, {1000, 16, 0},
		{1000, 16, 4}, {1000, 1, 8}, {100_000, 17, 8}, {64, 0, 4}, {65, 0, 4},
	} {
		size := tc.size
		if size <= 0 {
			size = DefaultSize
		}
		morsels, started := Split(tc.n, tc.size, tc.workers)
		seen := make([]atomic.Int32, tc.n)
		var calls atomic.Int64
		err := Run(context.Background(), tc.n, tc.size, tc.workers, func(w, m, lo, hi int) error {
			calls.Add(1)
			if w < 0 || w >= started {
				t.Errorf("%+v: worker index %d outside [0,%d)", tc, w, started)
			}
			if lo != m*size || hi != min((m+1)*size, tc.n) || hi <= lo {
				t.Errorf("%+v: morsel %d is [%d,%d)", tc, m, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if int(calls.Load()) != morsels {
			t.Errorf("%+v: body ran %d times, Split says %d morsels", tc, calls.Load(), morsels)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("%+v: item %d dealt %d times", tc, i, c)
			}
		}
	}
}

// TestRunAloneStartsNothing: with one worker, or one morsel, body runs on
// the calling goroutine — no goroutine exists inside body that did not
// before the call — and in morsel order.
func TestRunAloneStartsNothing(t *testing.T) {
	for _, tc := range []struct{ n, size, workers int }{
		{1000, 16, 1}, {1000, 16, 0}, {1000, 16, -3}, {16, 16, 8}, {5, 64, 8},
	} {
		before := runtime.NumGoroutine()
		next := 0
		err := Run(context.Background(), tc.n, tc.size, tc.workers, func(w, m, lo, hi int) error {
			if g := runtime.NumGoroutine(); g != before {
				t.Errorf("%+v: %d goroutines inside body, %d before Run", tc, g, before)
			}
			if w != 0 || m != next {
				t.Errorf("%+v: body(w=%d, m=%d), want worker 0 and morsel %d", tc, w, m, next)
			}
			next++
			return nil
		})
		if err != nil || next == 0 {
			t.Fatalf("%+v: %d morsels, %v", tc, next, err)
		}
	}
}

// TestRunStopEndsEveryWorker: once a body returns Stop no worker claims
// another morsel, so at most one more per worker starts (each sleeps long
// enough for the stop to land), and Run reports no error.
func TestRunStopEndsEveryWorker(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var stopped atomic.Bool
		var after atomic.Int64
		err := Run(context.Background(), 10_000, 1, workers, func(_, m, _, _ int) error {
			if m == 0 {
				stopped.Store(true)
				return Stop
			}
			if stopped.Load() {
				after.Add(1)
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: Stop surfaced as %v", workers, err)
		}
		if n := after.Load(); n > int64(2*workers) {
			t.Errorf("workers=%d: %d morsels started after the stop request", workers, n)
		}
	}
}

// TestRunReturnsFirstError: a cancelled ctx is returned without calling
// body; a body's error ends the run and is returned; the first error
// recorded wins, and a Stop never masks one.
func TestRunReturnsFirstError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		err := Run(cancelled, 1000, 1, workers, func(_, _, _, _ int) error {
			t.Errorf("workers=%d: body ran under a cancelled ctx", workers)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled ctx returned %v", workers, err)
		}

		// Morsel 0 fails at once; everyone else fails differently, later.
		var calls atomic.Int64
		err = Run(context.Background(), 1000, 1, workers, func(_, m, _, _ int) error {
			calls.Add(1)
			if m == 0 {
				return errA
			}
			time.Sleep(20 * time.Millisecond)
			return errB
		})
		if err != errA {
			t.Errorf("workers=%d: got %v, want the first error", workers, err)
		}
		if n := calls.Load(); n > int64(workers) {
			t.Errorf("workers=%d: %d morsels ran after the first one failed", workers, n)
		}

		// A body cancelling ctx and failing: on one goroutine its own error
		// is seen first; on a pool either may be, never nil.
		ctx, cancel := context.WithCancel(context.Background())
		err = Run(ctx, 1000, 1, workers, func(_, _, _, _ int) error {
			cancel()
			return errA
		})
		if err != errA && !(workers > 1 && errors.Is(err, context.Canceled)) {
			t.Errorf("workers=%d: got %v after cancel+fail", workers, err)
		}

		// Morsel 0 asks to stop once a later morsel is under way; that one
		// then fails. Alone, nothing is under way and the stop ends the run.
		under := make(chan struct{}, 1000) // a slot per morsel: no sender ever blocks
		err = Run(context.Background(), 1000, 1, workers, func(_, m, _, _ int) error {
			if m == 0 {
				if workers > 1 {
					<-under
				}
				return Stop
			}
			under <- struct{}{}
			time.Sleep(5 * time.Millisecond)
			return errB
		})
		if want := map[bool]error{true: nil, false: errB}[workers == 1]; err != want {
			t.Errorf("workers=%d: Stop then error returned %v, want %v", workers, err, want)
		}
	}
}

// TestRunEmptyIsNoOp: nothing to deal means body is never called, even
// under a cancelled ctx.
func TestRunEmptyIsNoOp(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		if err := Run(ctx, 0, 16, workers, func(_, _, _, _ int) error {
			t.Error("body called for n == 0")
			return nil
		}); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
