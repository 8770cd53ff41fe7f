package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/obs"
	"livegraph/internal/wal"
)

// Shipper is the primary-side log shipper: it serves the replication
// stream endpoint by tailing the graph's WAL (wal.Tail) and writing
// epoch-framed commit groups down a chunked HTTP response.
// One Shipper serves any number of concurrent streams; each stream gets
// its own tailer, so replicas at different positions do not interfere.
type Shipper struct {
	G *core.Graph

	// Stats aggregates shipping counters across all streams.
	Stats *Stats

	// Heartbeat is the idle-stream heartbeat interval (carries the
	// primary's durable epoch so replicas can measure lag while no
	// commits flow). Default 200ms.
	Heartbeat time.Duration

	// Poll is the WAL tail poll interval while waiting for new groups.
	// Default 2ms: short enough that steady-state replication lag is
	// dominated by apply time, long enough not to spin.
	Poll time.Duration

	mu      sync.Mutex
	closing chan struct{}
	wg      sync.WaitGroup
	closed  bool
}

// NewShipper builds a shipper for a durable graph and registers its
// counters in the graph's instrument registry.
func NewShipper(g *core.Graph) *Shipper {
	sh := &Shipper{G: g, Stats: &Stats{}}
	sh.Stats.registerShipper(g.Obs())
	return sh
}

// ServeStream handles GET /v1/repl/stream?after=<epoch>: it streams every
// fully durable commit group with a later epoch, in order, then follows
// the log as it grows until the client disconnects or the shipper closes.
// Responds 410 Gone when the requested position precedes the retained log
// (the replica must resync), 412 when the graph has no WAL to ship.
func (sh *Shipper) ServeStream(w http.ResponseWriter, r *http.Request) {
	if sh.G.Dir() == "" {
		streamErr(w, http.StatusPreconditionFailed, "replication requires a durable primary (no WAL)")
		return
	}
	after := int64(0)
	if q := r.URL.Query().Get("after"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			streamErr(w, http.StatusBadRequest, "after=%q: must be a non-negative epoch", q)
			return
		}
		after = v
	}
	if !sh.enter() {
		streamErr(w, http.StatusServiceUnavailable, "shipper closed")
		return
	}
	defer sh.exit()

	tailer := wal.Tail(sh.G.Dir(), after, sh.G.DurableEpoch)
	defer tailer.Close()

	flusher, _ := w.(http.Flusher)
	heartbeat := sh.Heartbeat
	if heartbeat <= 0 {
		heartbeat = 200 * time.Millisecond
	}
	poll := sh.Poll
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}

	headerWritten := false
	ensureHeader := func() {
		if !headerWritten {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			headerWritten = true
		}
	}

	ctx := r.Context()
	var buf []byte
	lastSent := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-sh.closing:
			return
		default:
		}
		epoch, recs, ok, err := tailer.Next()
		if err != nil {
			if !headerWritten {
				if errors.Is(err, wal.ErrTailGone) {
					streamErr(w, http.StatusGone, "%v", err)
				} else {
					streamErr(w, http.StatusInternalServerError, "%v", err)
				}
			}
			// Mid-stream errors just end the response; the replica's
			// reconnect lands back here and gets the status code.
			return
		}
		if ok {
			ensureHeader()
			// One sampled span per shipped group; slow writes (a stalled
			// replica backpressuring the stream) surface via SlowOp.
			tr := sh.G.Tracer()
			_, ssp := tr.StartSpan(ctx, "repl.ship")
			t0 := time.Now()
			buf = appendFrame(buf[:0], epoch, recs)
			_, err := w.Write(buf)
			if flusher != nil {
				flusher.Flush()
			}
			ssp.SetAttr(obs.Int("epoch", epoch), obs.Int("bytes", int64(len(buf))))
			ssp.End()
			if ssp == nil {
				tr.SlowOp("repl.ship", time.Since(t0),
					obs.Int("epoch", epoch), obs.Int("bytes", int64(len(buf))))
			}
			if err != nil {
				return
			}
			sh.Stats.StreamedGroups.Add(1)
			sh.Stats.StreamedBytes.Add(int64(len(buf)))
			lastSent = time.Now()
			continue
		}
		// Nothing to ship: heartbeat if the stream has been quiet, then
		// wait a poll tick.
		ensureHeader()
		if time.Since(lastSent) >= heartbeat {
			buf = appendFrame(buf[:0], sh.G.DurableEpoch(), nil)
			if _, err := w.Write(buf); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sh.Stats.StreamedBytes.Add(int64(len(buf)))
			lastSent = time.Now()
		}
		t := time.NewTimer(poll)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-sh.closing:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// enter registers a stream, refusing if the shipper is closing.
func (sh *Shipper) enter() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return false
	}
	if sh.closing == nil {
		sh.closing = make(chan struct{})
	}
	sh.wg.Add(1)
	sh.Stats.StreamsOpen.Add(1)
	return true
}

func (sh *Shipper) exit() {
	sh.Stats.StreamsOpen.Add(-1)
	sh.wg.Done()
}

// Close stops accepting streams, signals every open stream to end, and
// waits for them to drain (bounded by ctx). Safe to call more than once.
func (sh *Shipper) Close(ctx context.Context) error {
	sh.mu.Lock()
	if !sh.closed {
		sh.closed = true
		if sh.closing == nil {
			sh.closing = make(chan struct{})
		}
		close(sh.closing)
	}
	sh.mu.Unlock()
	done := make(chan struct{})
	go func() {
		sh.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("repl: streams still draining: %w", ctx.Err())
	}
}

func streamErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
