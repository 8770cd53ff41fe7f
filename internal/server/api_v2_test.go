package server

// Tests for the v2 API surface over HTTP: the traversal endpoint, strict
// parameter validation, and the client's retry-on-409 contract.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"livegraph/internal/core"
)

func seedChain(t *testing.T, c *Client) []int64 {
	t.Helper()
	// 0 -(L0)-> 1 -(L0)-> 2, and 1 -(L1)-> 3.
	ids, err := c.Tx(
		Op{Op: "addVertex"}, Op{Op: "addVertex"}, Op{Op: "addVertex"}, Op{Op: "addVertex"},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Tx(
		Op{Op: "insertEdge", Src: ids[0], Label: 0, Dst: ids[1]},
		Op{Op: "insertEdge", Src: ids[1], Label: 0, Dst: ids[2]},
		Op{Op: "insertEdge", Src: ids[1], Label: 1, Dst: ids[3]},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestTraverseEndpoint(t *testing.T) {
	c, g := startServer(t, core.Options{})
	ids := seedChain(t, c)

	// Two hops along L0: 0 -> 1 -> 2.
	got, epoch, err := c.Traverse(ids[0], []int64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != ids[2] {
		t.Fatalf("traverse = %v, want [%d]", got, ids[2])
	}
	if epoch != g.ReadEpoch() {
		t.Fatalf("epoch = %d, want %d", epoch, g.ReadEpoch())
	}

	// Mixed labels: L0 then L1 lands on 3.
	got, _, err = c.Traverse(ids[0], []int64{0, 1}, nil)
	if err != nil || len(got) != 1 || got[0] != ids[3] {
		t.Fatalf("mixed-label traverse = %v, %v", got, err)
	}

	// Limit caps the frontier.
	if _, err := c.Tx(Op{Op: "insertEdge", Src: ids[0], Label: 0, Dst: ids[2]}); err != nil {
		t.Fatal(err)
	}
	got, _, err = c.Traverse(ids[0], []int64{0}, &TraverseOptions{Limit: 1})
	if err != nil || len(got) != 1 {
		t.Fatalf("limited traverse = %v, %v", got, err)
	}
}

func TestTraverseEndpointAsOf(t *testing.T) {
	c, g := startServer(t, core.Options{HistoryRetention: 1 << 30})
	ids := seedChain(t, c)
	before := g.ReadEpoch()
	if _, err := c.Tx(Op{Op: "deleteEdge", Src: ids[1], Label: 0, Dst: ids[2]}); err != nil {
		t.Fatal(err)
	}

	now, _, err := c.Traverse(ids[0], []int64{0, 0}, nil)
	if err != nil || len(now) != 0 {
		t.Fatalf("post-delete traverse = %v, %v", now, err)
	}
	old, epoch, err := c.Traverse(ids[0], []int64{0, 0}, &TraverseOptions{AsOf: before, AsOfSet: true})
	if err != nil || len(old) != 1 || old[0] != ids[2] || epoch != before {
		t.Fatalf("AsOf traverse = %v (epoch %d), %v", old, epoch, err)
	}
}

func TestTraverseEndpointHistoryGone(t *testing.T) {
	c, g := startServer(t, core.Options{HistoryRetention: 1})
	ids := seedChain(t, c)
	early := g.ReadEpoch()
	for i := 0; i < 5; i++ {
		if _, err := c.Tx(Op{Op: "insertEdge", Src: ids[0], Label: 2, Dst: ids[1]}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(c.Base + fmt.Sprintf("/v1/traverse/%d?out=0&asof=%d", ids[0], early))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("asof outside retention: status %d, want 410", resp.StatusCode)
	}
}

// TestTraverseEndpointParallel: the ?parallel= knob reaches the engine —
// a wide two-hop fan returns the same answer at parallel=1 and parallel=8
// — and junk values are rejected.
func TestTraverseEndpointParallel(t *testing.T) {
	c, _ := startServer(t, core.Options{})
	root, err := c.AddVertex(nil)
	if err != nil {
		t.Fatal(err)
	}
	// root -> 200 mids, each mid -> 2 leaves: the second hop's frontier is
	// wide enough to engage the worker pool at the default morsel size.
	var ops []Op
	for i := 0; i < 200; i++ {
		ops = append(ops, Op{Op: "addVertex"})
	}
	mids, err := c.Tx(ops...)
	if err != nil {
		t.Fatal(err)
	}
	ops = ops[:0]
	for _, m := range mids {
		ops = append(ops, Op{Op: "insertEdge", Src: root, Label: 0, Dst: m},
			Op{Op: "insertEdge", Src: m, Label: 0, Dst: root},
			Op{Op: "insertEdge", Src: m, Label: 0, Dst: mids[0]})
	}
	if _, err := c.Tx(ops...); err != nil {
		t.Fatal(err)
	}

	seq, _, err := c.Traverse(root, []int64{0, 0}, &TraverseOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := c.Traverse(root, []int64{0, 0}, &TraverseOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 400 || len(par) != len(seq) {
		t.Fatalf("parallel fan = %d results, sequential %d (want 400)", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("parallel result diverges at %d: %d != %d", i, par[i], seq[i])
		}
	}

	for _, url := range []string{
		"/v1/traverse/0?out=0&parallel=-1",
		"/v1/traverse/0?out=0&parallel=x",
	} {
		resp, err := http.Get(c.Base + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

func TestTraverseEndpointValidation(t *testing.T) {
	c, _ := startServer(t, core.Options{})
	seedChain(t, c)
	for _, url := range []string{
		"/v1/traverse/0",        // no hops
		"/v1/traverse/0?out=x",  // junk label
		"/v1/traverse/0?out=-1", // negative label
		"/v1/traverse/-1?out=0", // negative source
		"/v1/traverse/0?out=0&limit=-2",
		"/v1/traverse/0?out=0&limit=abc",
		"/v1/traverse/0?out=0&asof=zzz",
		"/v1/traverse/0?out=0&dedup=yes", // junk dedup must not be silently dropped
	} {
		resp, err := http.Get(c.Base + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

func TestTraverseEndpointResourceGuards(t *testing.T) {
	c, g := startServer(t, core.Options{})
	ids := seedChain(t, c)

	// Hop count beyond MaxTraverseHops is refused up front.
	hops := ""
	for i := 0; i < 9; i++ {
		hops += "&out=0"
	}
	resp, err := http.Get(c.Base + fmt.Sprintf("/v1/traverse/%d?%s", ids[0], hops[1:]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("9 hops: status %d, want 400", resp.StatusCode)
	}

	// A frontier outgrowing MaxTraverseFrontier aborts with 422. Shrink
	// the bound and fan 0 out to three neighbors.
	srv := New(g)
	srv.MaxTraverseFrontier = 2
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := c.Tx(
		Op{Op: "insertEdge", Src: ids[0], Label: 0, Dst: ids[2]},
		Op{Op: "insertEdge", Src: ids[0], Label: 0, Dst: ids[3]},
	); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + fmt.Sprintf("/v1/traverse/%d?out=0", ids[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("overgrown frontier: status %d, want 422", resp.StatusCode)
	}
}

func TestNeighborsLimitValidation(t *testing.T) {
	c, _ := startServer(t, core.Options{})
	ids := seedChain(t, c)
	for _, q := range []string{"limit=-1", "limit=abc", "limit=1.5", "limit="} {
		url := fmt.Sprintf("%s/v1/neighbors/%d/0?%s", c.Base, ids[0], q)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusBadRequest
		if q == "limit=" { // empty means "no limit", the documented default
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("?%s: status %d, want %d", q, resp.StatusCode, want)
		}
	}
}

func TestNegativePathIDsRejected(t *testing.T) {
	c, _ := startServer(t, core.Options{})
	seedChain(t, c)
	for _, url := range []string{
		"/v1/vertex/-1",
		"/v1/edge/-1/0/1", "/v1/edge/0/-1/1", "/v1/edge/0/0/-1",
		"/v1/neighbors/-7/0", "/v1/neighbors/0/-1",
		"/v1/degree/-1/0",
	} {
		resp, err := http.Get(c.Base + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

// TestClientRetriesConflicts fronts the client with a handler that fails
// with 409 a fixed number of times before succeeding: the client must keep
// retrying (with backoff) and surface success, never the transient 409.
func TestClientRetriesConflicts(t *testing.T) {
	var calls atomic.Int64
	const failures = 3
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failures {
			httpErr(w, http.StatusConflict, "transaction kept conflicting")
			return
		}
		writeJSON(w, TxResponse{VertexIDs: []int64{42}})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.RetryBase = time.Millisecond // keep the test fast
	start := time.Now()
	ids, err := c.Tx(Op{Op: "addVertex"})
	if err != nil {
		t.Fatalf("Tx after %d conflicts: %v", failures, err)
	}
	if len(ids) != 1 || ids[0] != 42 {
		t.Fatalf("ids = %v", ids)
	}
	if got := calls.Load(); got != failures+1 {
		t.Fatalf("server saw %d calls, want %d", got, failures+1)
	}
	if time.Since(start) < 3*time.Millisecond {
		t.Fatal("no backoff between retries")
	}
}

// TestClientConflictRetriesExhausted: persistent conflicts eventually
// surface as an error after exactly MaxRetries+1 attempts.
func TestClientConflictRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		httpErr(w, http.StatusConflict, "transaction kept conflicting")
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.MaxRetries = 2
	c.RetryBase = time.Millisecond
	if _, err := c.Tx(Op{Op: "addVertex"}); err == nil {
		t.Fatal("persistent conflict must surface an error")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + MaxRetries)", got)
	}
}

// TestClientDoesNotRetryNonConflict: a 400 is permanent; one attempt only.
func TestClientDoesNotRetryNonConflict(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		httpErr(w, http.StatusBadRequest, "unknown op")
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	if _, err := c.Tx(Op{Op: "bogus"}); err == nil {
		t.Fatal("400 must surface an error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}

// TestTraverseEndpointDirection: ?direction= reaches the executor — both
// forced directions return the top-down answer set, forcing bottomup
// without dedup is a 400, junk values are rejected, and the EXPLAIN
// response attributes the direction actually used.
func TestTraverseEndpointDirection(t *testing.T) {
	c, _ := startServer(t, core.Options{})
	root, err := c.AddVertex(nil)
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for i := 0; i < 40; i++ {
		ops = append(ops, Op{Op: "addVertex"})
	}
	vs, err := c.Tx(ops...)
	if err != nil {
		t.Fatal(err)
	}
	// root -> 30 mids, each mid -> the same 10 shared leaves.
	ops = ops[:0]
	for _, m := range vs[:30] {
		ops = append(ops, Op{Op: "insertEdge", Src: root, Label: 0, Dst: m})
		for _, l := range vs[30:] {
			ops = append(ops, Op{Op: "insertEdge", Src: m, Label: 0, Dst: l})
		}
	}
	if _, err := c.Tx(ops...); err != nil {
		t.Fatal(err)
	}

	td, _, err := c.Traverse(root, []int64{0, 0}, &TraverseOptions{Dedup: true, Direction: "topdown"})
	if err != nil {
		t.Fatal(err)
	}
	bu, _, err := c.Traverse(root, []int64{0, 0}, &TraverseOptions{Dedup: true, Direction: "bottomup"})
	if err != nil {
		t.Fatal(err)
	}
	if len(td) != 10 || len(bu) != len(td) {
		t.Fatalf("topdown %d results, bottomup %d, want 10 each", len(td), len(bu))
	}
	in := map[int64]bool{}
	for _, v := range td {
		in[v] = true
	}
	for _, v := range bu {
		if !in[v] {
			t.Fatalf("bottomup leaf %d not in topdown set %v", v, td)
		}
	}

	// EXPLAIN attributes the direction per hop.
	resp, err := c.TraverseExplain(root, []int64{0, 0}, &TraverseOptions{Dedup: true, Direction: "bottomup"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Explain == nil || resp.Explain.Hops[1].Direction != "bottomup" {
		t.Fatalf("explain = %+v, want hop 1 direction bottomup", resp.Explain)
	}

	// With enough candidates for two morsels a bottom-up hop runs on the
	// pool, and EXPLAIN says so with the workers and morsels it ran.
	ops = ops[:0]
	for i := 0; i < 520; i++ {
		ops = append(ops, Op{Op: "addVertex"})
	}
	extra, err := c.Tx(ops...)
	if err != nil {
		t.Fatal(err)
	}
	ops = ops[:0]
	for _, l := range extra {
		ops = append(ops, Op{Op: "insertEdge", Src: vs[0], Label: 0, Dst: l})
	}
	if _, err := c.Tx(ops...); err != nil {
		t.Fatal(err)
	}
	resp, err = c.TraverseExplain(root, []int64{0, 0}, &TraverseOptions{Dedup: true, Direction: "bottomup", Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h := resp.Explain.Hops[1]; len(resp.Vertices) != 530 || h.Direction != "bottomup" || !h.Parallel || h.Workers < 2 || h.Morsels < 2 {
		t.Fatalf("%d results, hop 1 = %+v, want 530 from a parallel bottomup hop", len(resp.Vertices), h)
	}

	// Forced bottomup without dedup cannot run.
	if _, _, err := c.Traverse(root, []int64{0}, &TraverseOptions{Direction: "bottomup"}); err == nil {
		t.Fatal("bottomup without dedup succeeded, want 400")
	}
	resp2, err := http.Get(c.Base + "/v1/traverse/0?out=0&direction=sideways")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("direction=sideways: status %d, want 400", resp2.StatusCode)
	}
}

// TestTraverseEndpointDstRange: ?dstmin/?dstmax compile to a pushed-down
// destination predicate — results match client-side filtering and the
// plan reports the fusion.
func TestTraverseEndpointDstRange(t *testing.T) {
	c, _ := startServer(t, core.Options{})
	ids := seedChain(t, c)

	all, _, err := c.Traverse(ids[0], []int64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Traverse(ids[0], []int64{0, 0},
		&TraverseOptions{MinDst: ids[2], MaxDst: ids[2], DstRangeSet: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, v := range all {
		if v == ids[2] {
			want = append(want, v)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("dst range = %v, want %v", got, want)
	}
	out, _, err := c.Traverse(ids[0], []int64{0, 0},
		&TraverseOptions{MinDst: ids[2] + 1, MaxDst: -1, DstRangeSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("out-of-range = %v, want empty", out)
	}

	plan, err := c.ExplainPlan(ids[0], []int64{0, 0},
		&TraverseOptions{MinDst: 0, MaxDst: 10, DstRangeSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Hops[1].Pushdown != 1 {
		t.Fatalf("plan hop 1 pushdown = %d, want 1: %+v", plan.Hops[1].Pushdown, plan.Hops)
	}
}
