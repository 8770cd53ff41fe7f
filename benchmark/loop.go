package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// executor performs request i of a list as sender w and reports whether
// the answer was right. A wrong answer, an error and a refusal are all
// failed operations.
type executor interface {
	exec(w int, l *reqList, i int) bool
}

// sample is what one request leaves behind; all times are nanoseconds
// since the window start.
type sample struct {
	due, sent, done int64
	ok, ran         bool
	waited          bool // open loop: a sender was free before the due time, so sent-due is generator lateness, not queueing
}

// windowResult is one open- or closed-loop window.
type windowResult struct {
	samples   []sample
	elapsedNs int64
	unsent    int
	saturated bool
}

var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// waitUntil sleeps until close to t and yield-spins the last stretch. On
// the reference box timer sleeps end on a ~1.1 ms tick (Sleep(50µs) takes
// 1.1 ms), which a plain sleep would charge to the engine as latency; the
// spin yields the processor on every turn, so it only uses idle time.
func waitUntil(t int64) {
	for {
		d := t - nowNs()
		if d <= 0 {
			return
		}
		if d > spinWindowNs {
			time.Sleep(time.Duration(d - spinWindowNs))
		} else {
			runtime.Gosched()
		}
	}
}

// runWindow drives list l with the given number of senders. With due
// times (open loop) each sender takes the next due request, waits until
// it is due and sends; latency is later counted from the due time, so a
// stall is charged to every request that was due during it. Without due
// times (closed loop) senders go back to back. onTake, when set, is
// called with each index as it is taken (checkpoint triggers).
func runWindow(ctx context.Context, ex executor, l *reqList, senders int, onTake func(i int)) windowResult {
	n := len(l.reqs)
	res := windowResult{samples: make([]sample, n)}
	open := l.due != nil
	var stopAt, endAt int64
	start := nowNs()
	if open {
		endAt = start + l.due[n-1]
		stopAt = endAt + int64(graceShare*float64(l.due[n-1]))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &res.samples[i]
				if open {
					s.due = l.due[i]
					if nowNs() > stopAt {
						continue // unsent: the window is over
					}
					s.waited = nowNs() < start+s.due
					waitUntil(start + s.due)
				}
				if onTake != nil {
					onTake(i)
				}
				s.sent = nowNs() - start
				s.ok = ex.exec(w, l, i)
				s.done = nowNs() - start
				s.ran = true
			}
		}(w)
	}
	wg.Wait()
	res.elapsedNs = nowNs() - start
	inTime := 0
	for i := range res.samples {
		s := &res.samples[i]
		if !s.ran {
			res.unsent++
		} else if open && start+s.done <= endAt {
			inTime++
		}
	}
	if open && float64(inTime) < saturatedBelow*float64(n) {
		res.saturated = true
	}
	return res
}
