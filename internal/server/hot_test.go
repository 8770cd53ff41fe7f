package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"livegraph/internal/core"
)

// seedStar commits a hub with fan out-neighbors on label 0, each carrying
// 32 property bytes and fan out-neighbors of its own, and returns the hub.
func seedStar(t testing.TB, c *Client, fan int) int64 {
	t.Helper()
	ops := make([]Op, 1+fan+fan*fan)
	for i := range ops {
		ops[i] = Op{Op: "addVertex", Data: []byte("payload-16-bytes")}
	}
	ids, err := c.Tx(ops...)
	if err != nil {
		t.Fatal(err)
	}
	props := bytes.Repeat([]byte{0xA5}, 32)
	edges := make([]Op, 0, fan+fan*fan)
	for i := 0; i < fan; i++ {
		mid := ids[1+i]
		edges = append(edges, Op{Op: "insertEdge", Src: ids[0], Dst: mid, Props: props})
		for j := 0; j < fan; j++ {
			edges = append(edges, Op{Op: "insertEdge", Src: mid, Dst: ids[1+fan+i*fan+j], Props: props})
		}
	}
	if _, err := c.Tx(edges...); err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

// TestHotEndpointsArePlainJSON is the curl-shaped check: no client of
// ours, just GET/POST and encoding/json into untyped values. It pins that
// the hot endpoints still speak plain JSON, now with a Content-Length
// instead of chunked framing, whatever the response size.
func TestHotEndpointsArePlainJSON(t *testing.T) {
	c, _ := startServer(t, core.Options{})
	hub := seedStar(t, c, 30) // a 900-vertex frontier: well past net/http's 2 KB auto-length
	fetch := func(method, path, body string) any {
		t.Helper()
		req, err := http.NewRequest(method, c.Base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q, body %s", path, resp.StatusCode, resp.Header.Get("Content-Type"), raw)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(raw)) {
			t.Fatalf("%s: transfer encoding %v, Content-Length %d for %d bytes", path, resp.TransferEncoding, resp.ContentLength, len(raw))
		}
		if raw[len(raw)-1] != '\n' {
			t.Fatalf("%s: no trailing newline", path)
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v in %s", path, err, raw)
		}
		return v
	}
	id := func(v int64) string { return strconv.FormatInt(v, 10) }

	nbrs := fetch("GET", "/v1/neighbors/"+id(hub)+"/0", "").([]any)
	first := nbrs[0].(map[string]any)
	if len(nbrs) != 30 || first["props"] != "paWlpaWlpaWlpaWlpaWlpaWlpaWlpaWlpaWlpaWlpaU=" || first["dst"].(float64) != float64(hub+30) {
		t.Fatalf("neighbors: %d elements, first %v", len(nbrs), first)
	}
	if page := fetch("GET", "/v1/neighbors/"+id(hub+31)+"/0", "").([]any); page == nil || len(page) != 0 {
		t.Fatalf("empty page is %#v, want []", page)
	}
	trav := fetch("GET", "/v1/traverse/"+id(hub)+"?out=0&out=0&dedup=1", "").(map[string]any)
	if vs := trav["vertices"].([]any); len(vs) != 900 || trav["epoch"].(float64) < 2 || len(trav) != 2 {
		t.Fatalf("traverse: %d vertices, keys %v", len(vs), trav)
	}
	if vs, ok := fetch("GET", "/v1/traverse/"+id(hub+31)+"?out=0", "").(map[string]any)["vertices"].([]any); !ok || len(vs) != 0 {
		t.Fatal("empty frontier is not []")
	}
	if v := fetch("GET", "/v1/vertex/"+id(hub), "").(map[string]any); v["data"] != "cGF5bG9hZC0xNi1ieXRlcw==" {
		t.Fatalf("vertex %v", v)
	}
	if e := fetch("GET", "/v1/edge/"+id(hub)+"/0/"+id(hub+1), "").(map[string]any); e["props"] != first["props"] {
		t.Fatalf("edge %v", e)
	}
	if d := fetch("GET", "/v1/degree/"+id(hub)+"/0", "").(map[string]any); d["degree"].(float64) != 30 {
		t.Fatalf("degree %v", d)
	}
	tx := fetch("POST", "/v1/tx", `{"ops":[{"op":"addVertex"},{"op":"addVertex","data":"eA=="}]}`).(map[string]any)
	if ids := tx["vertexIds"].([]any); len(ids) != 2 || tx["epoch"].(float64) < 3 {
		t.Fatalf("tx %v", tx)
	}
	if tx := fetch("POST", "/v1/tx", `{"ops":[{"op":"deleteEdge","src":0,"dst":1}]}`).(map[string]any); tx["vertexIds"] != nil {
		t.Fatalf("tx without addVertex reports vertexIds: %v", tx)
	}
}

// post sends body to /v1/tx and returns the status.
func post(t *testing.T, c *Client, body io.Reader) int {
	t.Helper()
	resp, err := http.Post(c.Base+"/v1/tx", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestTxBodyBounded: a body past maxTxBodyBytes is refused with 413 and
// commits nothing, however harmless its content (here: leading blanks).
func TestTxBodyBounded(t *testing.T) {
	c, g := startServer(t, core.Options{})
	tx := `{"ops":[{"op":"addVertex"}]}`
	pad := strings.Repeat(" ", maxTxBodyBytes-len(tx))
	if code := post(t, c, strings.NewReader(pad+tx)); code != 200 {
		t.Fatalf("body of exactly maxTxBodyBytes: status %d", code)
	}
	before := g.ReadEpoch()
	if code := post(t, c, strings.NewReader(" "+pad+tx)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte past the bound: status %d, want 413", code)
	}
	// Without a Content-Length the bound is found while reading.
	if code := post(t, c, io.MultiReader(strings.NewReader(" "+pad), strings.NewReader(tx))); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body past the bound: status %d, want 413", code)
	}
	if g.ReadEpoch() != before {
		t.Fatal("an oversized transaction committed")
	}
}

// TestTxBodyStrict: bytes after the request object are a 400 and commit
// nothing; unknown ops and non-integer IDs stay what they were.
func TestTxBodyStrict(t *testing.T) {
	c, g := startServer(t, core.Options{})
	before := g.ReadEpoch()
	for _, body := range []string{
		`{"ops":[{"op":"addVertex"}]}garbage`,
		`{"ops":[{"op":"addVertex"}]}{"ops":[{"op":"addVertex"}]}`,
		`{"ops":[{"op":"addVertex"}]}]`,
		`{"ops":[{"op":"bogus"}]}`,
		`{"ops":[{"op":"putVertex","id":1.5}]}`,
		`{"ops":[{"op":"putVertex","id":"1"}]}`,
		`{"ops":[{"op":"putVertex","id":1e0}]}`,
		`{"ops":[]}`,
		``,
	} {
		if code := post(t, c, strings.NewReader(body)); code != 400 {
			t.Errorf("%q: status %d, want 400", body, code)
		}
	}
	if g.ReadEpoch() != before {
		t.Fatal("a refused transaction committed")
	}
	if code := post(t, c, strings.NewReader(" {\"ops\":[{\"op\":\"addVertex\"}]} \r\n")); code != 200 {
		t.Fatalf("surrounding whitespace refused: status %d", code)
	}
}

// TestTxOutOfRangeRefused: an op naming a negative vertex ID, a vertex or
// edge source at or past MaxVertexID, or a label outside [0, MaxLabel) is
// a 400 that commits nothing, allocates nothing for the ID and leaves no
// vertex lock behind, so a later write to the same vertex commits.
func TestTxOutOfRangeRefused(t *testing.T) {
	c, g := startServer(t, core.Options{})
	if _, err := c.Tx(Op{Op: "addVertex"}, Op{Op: "addVertex"}); err != nil {
		t.Fatal(err)
	}
	before := g.ReadEpoch()
	for _, body := range []string{
		`{"ops":[{"op":"insertEdge","src":0,"label":-1,"dst":1}]}`,
		`{"ops":[{"op":"upsertEdge","src":0,"label":4096,"dst":1}]}`,
		`{"ops":[{"op":"deleteEdge","src":0,"label":1099511627776,"dst":1}]}`,
		`{"ops":[{"op":"insertEdge","src":0,"label":0,"dst":-1}]}`,
		`{"ops":[{"op":"insertEdge","src":-1,"label":0,"dst":1}]}`,
		`{"ops":[{"op":"putVertex","id":-1}]}`,
		`{"ops":[{"op":"delVertex","id":-1}]}`,
		`{"ops":[{"op":"insertEdge","src":1099511627776,"label":0,"dst":1}]}`,
		`{"ops":[{"op":"upsertEdge","src":4294967296,"label":0,"dst":1}]}`,
		`{"ops":[{"op":"putVertex","id":1099511627776}]}`,
	} {
		resp, err := http.Post(c.Base+"/v1/tx", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if g.ReadEpoch() != before {
		t.Fatal("a refused transaction committed")
	}
	if _, err := c.Tx(Op{Op: "insertEdge", Src: 0, Label: core.MaxLabel - 1, Dst: 1}); err != nil {
		t.Fatalf("write to vertex 0 after the refused ops: %v", err)
	}
	if d, err := c.Degree(0, core.MaxLabel-1); err != nil || d != 1 {
		t.Fatalf("degree %d %v, want 1", d, err)
	}
	// The highest vertex takes the frontier to MaxVertexID; addVertex is
	// then a 400 too, not an ID recovery would refuse.
	if _, err := c.Tx(Op{Op: "putVertex", ID: core.MaxVertexID - 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.Base+"/v1/tx", "application/json", strings.NewReader(`{"ops":[{"op":"addVertex"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("addVertex at the frontier MaxVertexID: status %d, want 400", resp.StatusCode)
	}
}

// recorder is a reusable http.ResponseWriter: Reset keeps the header map
// and the body's capacity, so a handler driven through it shows its own
// allocations only.
type recorder struct {
	h    http.Header
	body []byte
	code int
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { r.body = append(r.body, p...); return len(p), nil }
func (r *recorder) reset() {
	clear(r.h)
	r.body, r.code = r.body[:0], 200
}

// TestHotEndpointAllocs pins what one handled request and one decoded
// response allocate on the hot endpoints — neighbors (a 100-edge page),
// a two-hop dedup traversal (100 results) and a four-op transaction — the
// way TestTraversalNoExplainAllocs pins the executor. The handler is
// driven directly with a reused request and recorder, so net/http's own
// per-connection work is not in the numbers (ServeMux's routing and the
// engine's own work are). Handler budgets are the measured counts plus
// seven — under the race detector sync.Pool drops every fourth buffer, and
// a dropped response buffer is regrown by append — and decode budgets are
// exact: the result's slices and nothing else.
// The counts before the codec (reflection, one copy per neighbor) are
// given for scale. What the budgets catch is anything per element: one
// allocation per neighbor, vertex or op would multiply them.
func TestHotEndpointAllocs(t *testing.T) {
	srv := New(mustOpen(t))
	// The graph is built through the same handler, by a Client whose
	// transport calls it.
	direct := NewClient("http://direct")
	direct.HC = &http.Client{Transport: handlerTransport{srv}}
	hub := seedStar(t, direct, 10)
	wide := seedStar(t, direct, 100) // a 100-edge adjacency list

	rec := &recorder{h: make(http.Header)}
	serve := func(req *http.Request) []byte {
		rec.reset()
		srv.ServeHTTP(rec, req)
		if rec.code != 200 {
			t.Fatalf("%s: status %d: %s", req.URL, rec.code, rec.body)
		}
		return rec.body
	}
	get := func(path string) *http.Request { return httptest.NewRequest("GET", path, nil) }
	id := func(v int64) string { return strconv.FormatInt(v, 10) }

	txBody := []byte(`{"ops":[{"op":"upsertEdge","src":1,"dst":2,"props":"paWlpaWlpaWlpaWlpaWlpaWlpaWlpaWlpaWlpaWlpaU="},` +
		`{"op":"upsertEdge","src":1,"dst":3,"props":"paWlpaWlpaWlpaWlpaWlpaWlpaWlpaWlpaWlpaWlpaU="},` +
		`{"op":"deleteEdge","src":2,"dst":9},{"op":"addVertex","data":"cGF5bG9hZC0xNi1ieXRlcw=="}]}`)
	txReader := bytes.NewReader(txBody)
	txReq := httptest.NewRequest("POST", "/v1/tx", nil)
	txReq.ContentLength = int64(len(txBody))

	for _, tc := range []struct {
		name         string
		req          *http.Request
		handle       float64 // budget: allocations per handled request
		decode       func([]byte) error
		decodeBudget float64 // budget: allocations per decoded response
		jsonHandle   int     // the same two counts with encoding/json
		jsonDecoded  int
	}{
		{"neighbors", get("/v1/neighbors/" + id(wide) + "/0?limit=100"), 14, // measured 7
			func(b []byte) error { _, err := decodeNeighbors(b); return err }, 2, 120, 121},
		{"traverse", get("/v1/traverse/" + id(hub) + "?dedup=1&out=0&out=0"), 29, // measured 22
			func(b []byte) error { _, _, err := decodeTraverse(b); return err }, 1, 66, 18},
		{"tx", txReq, 41, // measured 34
			func(b []byte) error { _, err := decodeTxResponse(b); return err }, 1, 54, 11},
	} {
		prepare := func() {}
		if tc.req == txReq {
			prepare = func() { txReader.Reset(txBody); txReq.Body = io.NopCloser(txReader) }
		}
		prepare()
		body := append([]byte(nil), serve(tc.req)...)
		if got := testing.AllocsPerRun(100, func() { prepare(); serve(tc.req) }); got > tc.handle {
			t.Errorf("%s: %.0f allocations per handled request, budget %.0f (encoding/json: %d)", tc.name, got, tc.handle, tc.jsonHandle)
		}
		if err := tc.decode(body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { tc.decode(body) }); got > tc.decodeBudget {
			t.Errorf("%s: %.0f allocations per decoded response, budget %.0f (encoding/json: %d)", tc.name, got, tc.decodeBudget, tc.jsonDecoded)
		}
	}
}

func mustOpen(t *testing.T) *core.Graph {
	t.Helper()
	g, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// handlerTransport serves a Client's requests by calling the handler
// directly: no listener, no connection.
type handlerTransport struct{ h http.Handler }

func (tr handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	tr.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}
