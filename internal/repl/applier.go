package repl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/wal"
)

// ErrResyncRequired is returned by Applier.Run when the primary can no
// longer serve the replica's position: the epochs it needs were
// checkpointed out of the WAL (HTTP 410), or a group failed to apply.
// Reconnecting cannot help — the replica must be rebuilt from a fresh
// state transfer (replica bootstrap from a primary checkpoint is a
// planned follow-up; today: restart the follower empty against a primary
// whose WAL reaches back to epoch 0, or re-point it at a fresh primary).
var ErrResyncRequired = errors.New("repl: replica position no longer served by the primary; full resync required")

// ErrStreamFormat is returned by Applier.Run for a stream whose
// Content-Type is not StreamContentType: a primary of another build.
var ErrStreamFormat = errors.New("repl: unrecognized replication stream format (incompatible primary?)")

// Applier is the replica-side half of WAL shipping: it connects to the
// primary's stream endpoint, reads the primary's WAL frames (wal.ReadFrame
// verifies each one's checksum), and applies each commit group atomically
// into a live graph via core.Graph.ApplyEpoch.
// The target graph becomes a follower (writes rejected) and serves all
// read endpoints at its applied epoch throughout.
type Applier struct {
	G       *core.Graph
	Primary string // primary base URL, e.g. "http://primary:7450"

	// HC is the streaming client. Leave the default: a client with a
	// global timeout would kill healthy long-lived streams.
	HC *http.Client

	// Stats tracks apply progress and lag.
	Stats *Stats

	// ReconnectBase/ReconnectMax bound the exponential backoff between
	// stream reconnects. Defaults 50ms / 2s.
	ReconnectBase, ReconnectMax time.Duration
}

// NewApplier builds an applier replicating primary into g, and marks g a
// follower immediately so writes are rejected from the moment the replica
// exists, not from its first applied group. Its counters are registered
// in the graph's instrument registry.
func NewApplier(g *core.Graph, primary string) *Applier {
	g.SetFollower(true)
	a := &Applier{
		G:             g,
		Primary:       primary,
		HC:            &http.Client{},
		Stats:         &Stats{},
		ReconnectBase: 50 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
	}
	a.Stats.registerApplier(g.Obs())
	return a
}

// Run streams and applies until ctx is cancelled, reconnecting with
// capped exponential backoff on stream failures (primary restart, network
// blip). Each reconnect resumes from the graph's applied epoch, so no
// group is ever skipped or applied twice. Returns ctx.Err() on
// cancellation, or ErrResyncRequired or ErrStreamFormat (wrapped) when
// reconnecting cannot recover the stream.
func (a *Applier) Run(ctx context.Context) error {
	base := a.ReconnectBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	backoff := base
	for {
		before := a.Stats.AppliedGroups.Load()
		start := time.Now()
		err := a.runOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrResyncRequired) || errors.Is(err, ErrStreamFormat) {
			return err
		}
		if a.Stats.AppliedGroups.Load() > before || time.Since(start) > time.Second {
			// The session made progress (or streamed healthily for a
			// while): this is a fresh failure, not a continuation of the
			// previous outage — back off from the base again.
			backoff = base
		}
		a.Stats.Reconnects.Add(1)
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		backoff *= 2
		if max := a.ReconnectMax; max > 0 && backoff > max {
			backoff = max
		}
	}
}

// runOnce opens one stream session and applies frames until it ends.
func (a *Applier) runOnce(ctx context.Context) error {
	after := a.G.ReadEpoch()
	url := fmt.Sprintf("%s/v1/repl/stream?after=%d", a.Primary, after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	hc := a.HC
	if hc == nil {
		hc = &http.Client{}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := streamStatusErr(resp)
		if resp.StatusCode == http.StatusGone {
			return fmt.Errorf("%w: %v", ErrResyncRequired, err)
		}
		return err
	}
	if ct := resp.Header.Get("Content-Type"); ct != StreamContentType {
		return fmt.Errorf("%w: Content-Type %q, want %q", ErrStreamFormat, ct, StreamContentType)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<18)
	for {
		// The stream's end, and a frame that does not verify, end the
		// session: Run reconnects from the applied epoch.
		f, err := wal.ReadFrame(br, wal.Stream)
		if err != nil {
			return err
		}
		a.Stats.ObserveSourceEpoch(f.Epoch)
		if len(f.Recs) == 0 {
			continue // heartbeat
		}
		if err := a.G.ApplyEpoch(f.Epoch, f.Recs); err != nil {
			// A group that fails to apply will fail identically on every
			// reconnect (the stream would resend it); surface as fatal.
			return fmt.Errorf("%w: apply epoch %d: %v", ErrResyncRequired, f.Epoch, err)
		}
		a.Stats.AppliedEpoch.Store(f.Epoch)
		a.Stats.AppliedGroups.Add(1)
		a.Stats.AppliedBytes.Add(int64(len(f.Raw)))
	}
}

func streamStatusErr(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
	if e.Error == "" {
		e.Error = resp.Status
	}
	return fmt.Errorf("repl: stream: %s (http %d)", e.Error, resp.StatusCode)
}
