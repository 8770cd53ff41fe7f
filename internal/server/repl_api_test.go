package server

// Follower-mode API and client read-routing tests: write rejection,
// staleness preconditions, failover, and replication stats.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/repl"
)

// replPair spins up a durable primary server and a follower server whose
// applier streams from it (started when run is true). Returns both
// httptest servers, the graphs, and a stop for the applier.
func replPair(t *testing.T, run bool) (primaryURL, followerURL string, pg, fg *core.Graph, fol *Server) {
	t.Helper()
	pg, err := core.Open(core.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	ps := New(pg)
	hp := httptest.NewServer(ps)
	t.Cleanup(hp.Close)

	fg, err = core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fg.Close() })
	ap := repl.NewApplier(fg, hp.URL)
	fol = NewFollower(fg, ap)
	hf := httptest.NewServer(fol)
	t.Cleanup(hf.Close)
	if run {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); ap.Run(ctx) }()
		t.Cleanup(func() { cancel(); <-done })
	}
	return hp.URL, hf.URL, pg, fg, fol
}

func TestFollowerRejectsWrites(t *testing.T) {
	_, followerURL, _, _, _ := replPair(t, false)
	fc := NewClient(followerURL)
	if _, err := fc.Tx(Op{Op: "addVertex", Data: []byte("x")}); err == nil {
		t.Fatal("write to follower succeeded")
	}
	resp, err := http.Post(followerURL+"/v1/tx", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower POST /v1/tx = %d, want 403", resp.StatusCode)
	}
	resp, err = http.Post(followerURL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower POST /v1/checkpoint = %d, want 403", resp.StatusCode)
	}
}

func TestReadYourWritesFallsBackToPrimary(t *testing.T) {
	// The applier never runs: the follower is permanently at epoch 0, so
	// every read-your-writes read must bounce off it with 412 and land on
	// the primary.
	primaryURL, followerURL, _, _, _ := replPair(t, false)

	// A counting pass-through in front of the follower observes the 412s.
	var precondRejects atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequest(r.Method, followerURL+r.URL.String(), r.Body)
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusPreconditionFailed {
			precondRejects.Add(1)
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	c := NewClient(primaryURL, proxy.URL) // MaxStaleness 0: read-your-writes
	id, err := c.AddVertex([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if c.LastEpoch() == 0 {
		t.Fatal("Tx did not report a commit epoch")
	}
	data, err := c.Vertex(id)
	if err != nil || string(data) != "hello" {
		t.Fatalf("Vertex after write = %q, %v", data, err)
	}
	if precondRejects.Load() == 0 {
		t.Fatal("stale follower was never asked (routing skipped the replica)")
	}
}

func TestStaleReadsServedByFollower(t *testing.T) {
	primaryURL, followerURL, pg, fg, _ := replPair(t, true)
	c := NewClient(primaryURL, followerURL)
	id, err := c.AddVertex([]byte("replicated"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the follower to catch up, then read with the staleness
	// bound satisfied — the rotated order tries the follower first.
	deadline := time.Now().Add(10 * time.Second)
	for fg.ReadEpoch() < pg.ReadEpoch() {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		data, err := c.Vertex(id)
		if err != nil || string(data) != "replicated" {
			t.Fatalf("routed read = %q, %v", data, err)
		}
	}
	// Unbounded staleness with only a (caught-up) replica also works.
	c2 := NewClient(primaryURL, followerURL)
	c2.MaxStaleness = -1
	if _, err := c2.Vertex(id); err != nil {
		t.Fatal(err)
	}
}

func TestClientFailoverOnDeadReplica(t *testing.T) {
	primaryURL, _, _, _, _ := replPair(t, false)
	c := NewClient(primaryURL, "http://127.0.0.1:1") // unreachable replica
	id, err := c.AddVertex([]byte("failover"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Vertex(id)
	if err != nil || string(data) != "failover" {
		t.Fatalf("read with dead replica = %q, %v", data, err)
	}
	// Definitive answers do not fail over: a missing vertex 404s even
	// though the primary would also 404 — and must not mask as lastErr.
	if _, err := c.Vertex(id + 999); err == nil {
		t.Fatal("missing vertex read succeeded")
	}
}

func TestStatsReportReplication(t *testing.T) {
	primaryURL, followerURL, pg, fg, _ := replPair(t, true)
	pc, fc := NewClient(primaryURL), NewClient(followerURL)
	if _, err := pc.AddVertex([]byte("s")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fg.ReadEpoch() < pg.ReadEpoch() {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	ps, err := pc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"durableEpoch", "appliedEpoch", "walAppendedBytes", "compactions", "replStreams", "replStreamedGroups", "replStreamedBytes"} {
		if _, ok := ps[k]; !ok {
			t.Errorf("primary stats missing %q", k)
		}
	}
	if ps["durableEpoch"] < ps["readEpoch"] {
		t.Errorf("durableEpoch %d < readEpoch %d", ps["durableEpoch"], ps["readEpoch"])
	}
	if ps["walAppendedBytes"] <= 0 {
		t.Error("walAppendedBytes not tracked")
	}
	fs, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"replSourceEpoch", "replLagEpochs", "replAppliedGroups", "replAppliedBytes"} {
		if _, ok := fs[k]; !ok {
			t.Errorf("follower stats missing %q", k)
		}
	}
	if fs["appliedEpoch"] != ps["readEpoch"] {
		t.Errorf("follower appliedEpoch %d != primary readEpoch %d", fs["appliedEpoch"], ps["readEpoch"])
	}
	if fs["replAppliedGroups"] <= 0 {
		t.Error("follower applied no groups")
	}
}

func TestMinEpochHeaderValidation(t *testing.T) {
	_, followerURL, _, _, _ := replPair(t, false)
	req, _ := http.NewRequest(http.MethodGet, followerURL+"/v1/vertex/0", nil)
	req.Header.Set(MinEpochHeader, "junk")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk min-epoch = %d, want 400", resp.StatusCode)
	}
}
