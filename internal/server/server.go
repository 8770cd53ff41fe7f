// Package server exposes a LiveGraph instance over HTTP/JSON — the
// counterpart of the paper's §7.1 setup, which serves the benchmark driver
// through an RPC server in front of the embedded store. The API covers the
// basic operations plus batched transactions, neighborhood scans and
// snapshot analytics.
//
// Endpoints (all JSON):
//
//	POST /v1/tx          {ops:[...]}                -> atomic transaction
//	GET  /v1/vertex/{id}                            -> vertex payload
//	GET  /v1/edge/{src}/{label}/{dst}               -> edge properties
//	GET  /v1/neighbors/{src}/{label}?limit=N        -> adjacency list (newest first)
//	GET  /v1/degree/{src}/{label}                   -> edge count
//	GET  /v1/traverse/{src}?out=L&out=L2&...        -> multi-hop traversal
//	GET  /v1/stats                                  -> engine counters
//	POST /v1/checkpoint                             -> durable checkpoint
//	GET  /v1/repl/stream?after=E                    -> WAL-shipping stream (binary)
//
// A server is a primary (New) or a follower (NewFollower). A durable
// primary ships its WAL on /v1/repl/stream; a follower applies that
// stream into its graph, serves every read endpoint at its applied epoch,
// and rejects writes with 403. Read requests may carry the
// X-Livegraph-Min-Epoch header; a server whose applied epoch is behind it
// answers 412 instead of serving stale data (Client uses this for
// read-your-writes and bounded-staleness routing).
//
// Payloads are base64 within JSON. Transaction ops:
//
//	{"op":"addVertex","data":...}                       (result: its ID, in order)
//	{"op":"putVertex","id":7,"data":...}
//	{"op":"delVertex","id":7}
//	{"op":"insertEdge","src":1,"label":0,"dst":2,"props":...}
//	{"op":"upsertEdge",...} {"op":"deleteEdge",...}
//
// A /v1/tx body is one JSON object and nothing after it but whitespace
// (400 otherwise), of at most maxTxBodyBytes (4 MiB; 413 past that).
//
// The six endpoints every client request goes through — tx, vertex, edge,
// neighbors, degree and traverse without explain — are the hot ones: both
// ends encode and decode them with the hand-rolled codec in wire.go
// instead of encoding/json's reflection. The wire format is unchanged —
// the bytes are the ones encoding/json produces, plain JSON for curl and
// any other client — and every hot 200 response carries a Content-Length
// and goes out in one write, whatever its size. Client is strict where a
// json.Decoder would be lenient: a response followed by anything but
// whitespace, or naming a known member twice, is an error; member order,
// whitespace, unknown members, null and escaped or case-folded names are
// accepted as encoding/json accepts them. The cold endpoints — stats,
// traces, ?explain= responses, checkpoint, error bodies — stay on
// encoding/json.
//
// The traversal endpoint compiles its query into the engine's composable
// traversal builder: each repeated out=LABEL parameter is one hop, and
// limit=N, dedup=1, asof=EPOCH and parallel=N map to the builder's Limit,
// Dedup, AsOf and Parallel. asof epochs outside the retention window
// return 410 Gone. parallel requests a worker-pool width for the
// morsel-driven frontier engine, clamped to MaxTraverseParallel; absent or
// 0 defers to the engine default (GOMAXPROCS).
// direction=auto|topdown|bottomup forces the expansion strategy (auto lets
// the executor pick per hop from degree statistics; forcing bottomup on a
// traversal that cannot support it — no Dedup — is a 400).
// dstmin=N/dstmax=N constrain final-hop destinations to an ID range; the
// range compiles to a pure destination predicate that the planner pushes
// down into the TEL scan loop (visible as pushdown in EXPLAIN).
//
// Every handler threads the request context through the engine — begin,
// vertex-lock and group-commit waits all end when the client disconnects
// or the request deadline passes (499-style 503 for writes).
//
// Conflicted transactions are retried server-side up to MaxRetries before
// returning 409; clients should treat 409 as retryable (server.Client
// does, with capped exponential backoff).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"livegraph/internal/core"
	"livegraph/internal/repl"
)

// MinEpochHeader is the read-precondition header: a request carrying it
// is served only if the graph's read (applied) epoch has reached the
// given value; otherwise the server answers 412 Precondition Failed and
// the client routes to a fresher endpoint. This is how bounded-staleness
// and read-your-writes routing stay a replica-side decision — the client
// never needs to poll replica positions.
const MinEpochHeader = "X-Livegraph-Min-Epoch"

// Server serves a core.Graph over HTTP — as a primary (accepting writes
// and, when the graph is durable, shipping its WAL to replicas) or as a
// follower (serving every read endpoint at its applied epoch, rejecting
// writes with 403).
type Server struct {
	G          *core.Graph
	MaxRetries int
	// MaxTraverseHops and MaxTraverseFrontier bound /v1/traverse requests:
	// hop count is capped up front (400) and a walk whose intermediate
	// frontier outgrows the bound is aborted (422), so one dense-graph
	// query cannot expand degree^hops vertex IDs and exhaust the server.
	MaxTraverseHops     int
	MaxTraverseFrontier int
	// MaxTraverseParallel caps the ?parallel= worker-pool width a client
	// may request for one traversal, so a single query cannot claim an
	// unbounded number of goroutines.
	MaxTraverseParallel int
	// Shipper serves GET /v1/repl/stream (primary side). New enables it
	// automatically for durable graphs; nil answers 501.
	Shipper *repl.Shipper
	// Applier marks this server a follower: writes answer 403 and
	// /v1/stats reports replication lag. Set via NewFollower.
	Applier *repl.Applier
	// EnablePprof opens /debug/pprof/* (goroutine stacks, heap contents,
	// CPU profiles). Off by default; lgserver exposes it as -pprof.
	EnablePprof bool
	mux         *http.ServeMux
}

// New builds a primary server for g. If g is durable its WAL is served to
// replicas on GET /v1/repl/stream.
func New(g *core.Graph) *Server {
	s := newServer(g)
	if g.Dir() != "" {
		s.Shipper = repl.NewShipper(g)
	}
	return s
}

// NewFollower builds a follower server: g is the replica graph ap keeps
// fed from the primary (run ap.Run yourself — the server only reports its
// progress). All read endpoints serve at the applied epoch; writes are
// rejected with 403.
func NewFollower(g *core.Graph, ap *repl.Applier) *Server {
	s := newServer(g)
	s.Applier = ap
	return s
}

func newServer(g *core.Graph) *Server {
	s := &Server{G: g, MaxRetries: 16, MaxTraverseHops: 8, MaxTraverseFrontier: 1 << 20, MaxTraverseParallel: 16}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tx", s.handleTx)
	mux.HandleFunc("GET /v1/vertex/", s.handleVertex)
	mux.HandleFunc("GET /v1/edge/", s.handleEdge)
	mux.HandleFunc("GET /v1/neighbors/", s.handleNeighbors)
	mux.HandleFunc("GET /v1/degree/", s.handleDegree)
	mux.HandleFunc("GET /v1/traverse/", s.handleTraverse)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", s.handlePprof)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/repl/stream", s.handleReplStream)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the server's long-lived replication streams (bounded by
// ctx). Call it before http.Server.Shutdown so stream connections do not
// hold the drain open forever; regular request handlers are unaffected.
func (s *Server) Close(ctx context.Context) error {
	if s.Shipper != nil {
		return s.Shipper.Close(ctx)
	}
	return nil
}

// rejectWrite answers 403 on follower servers, keeping the replica's
// state a pure function of the primary's log.
func (s *Server) rejectWrite(w http.ResponseWriter) bool {
	if s.Applier == nil {
		return false
	}
	httpErr(w, http.StatusForbidden, "read replica: writes must go to the primary")
	return true
}

// checkMinEpoch enforces the MinEpochHeader read precondition, answering
// 412 (and returning false) when this server has not applied far enough.
func (s *Server) checkMinEpoch(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get(MinEpochHeader)
	if h == "" {
		return true
	}
	min, err := strconv.ParseInt(h, 10, 64)
	if err != nil || min < 0 {
		httpErr(w, http.StatusBadRequest, "%s=%q: must be a non-negative epoch", MinEpochHeader, h)
		return false
	}
	if cur := s.G.ReadEpoch(); cur < min {
		httpErr(w, http.StatusPreconditionFailed, "applied epoch %d behind required %d", cur, min)
		return false
	}
	return true
}

func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	if s.Shipper == nil {
		httpErr(w, http.StatusNotImplemented, "replication stream not served here (volatile graph or follower)")
		return
	}
	s.Shipper.ServeStream(w, r)
}

// Op is one operation inside a transaction request.
type Op struct {
	Op    string `json:"op"`
	ID    int64  `json:"id,omitempty"`
	Src   int64  `json:"src,omitempty"`
	Label int64  `json:"label,omitempty"`
	Dst   int64  `json:"dst,omitempty"`
	Data  []byte `json:"data,omitempty"`
	Props []byte `json:"props,omitempty"`
}

// TxRequest is the transaction envelope.
type TxRequest struct {
	Ops []Op `json:"ops"`
}

// TxResponse reports created vertex IDs (in AddVertex order) and the
// commit epoch — the read-your-writes token: any Reader whose epoch has
// reached Epoch observes this transaction.
type TxResponse struct {
	VertexIDs []int64 `json:"vertexIds,omitempty"`
	Epoch     int64   `json:"epoch,omitempty"`
}

func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w) {
		return
	}
	req, ok := readTxRequest(w, r)
	if !ok {
		return
	}
	if len(req.Ops) == 0 {
		httpErr(w, http.StatusBadRequest, "empty transaction")
		return
	}
	ctx := r.Context()
	var resp TxResponse
	var lastErr error
	for attempt := 0; attempt <= s.MaxRetries; attempt++ {
		resp = TxResponse{}
		tx, err := s.G.BeginCtx(ctx)
		if err != nil {
			httpErr(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		lastErr = s.applyOps(tx, req.Ops, &resp)
		if lastErr != nil {
			tx.Abort()
			if ctxDone(lastErr) {
				httpErr(w, http.StatusServiceUnavailable, "%v", lastErr)
				return
			}
			if core.IsRetryable(lastErr) {
				continue
			}
			httpErr(w, http.StatusBadRequest, "%v", lastErr)
			return
		}
		lastErr = tx.CommitCtx(ctx)
		if lastErr == nil {
			resp.Epoch = tx.CommitEpoch()
			buf := getBuf()
			buf.b = appendTxResponse(buf.b, resp)
			writeWire(w, buf)
			return
		}
		if ctxDone(lastErr) {
			httpErr(w, http.StatusServiceUnavailable, "%v", lastErr)
			return
		}
		if !core.IsRetryable(lastErr) {
			httpErr(w, http.StatusInternalServerError, "%v", lastErr)
			return
		}
	}
	httpErr(w, http.StatusConflict, "transaction kept conflicting: %v", lastErr)
}

// maxTxBodyBytes bounds a /v1/tx body; a larger one is refused with 413
// before it is buffered. The largest transaction the engine itself takes
// is far smaller (a commit group is one WAL frame).
const maxTxBodyBytes = 4 << 20

// readTxRequest buffers and decodes the request body, answering 413 or
// 400 itself when it reports false.
func readTxRequest(w http.ResponseWriter, r *http.Request) (TxRequest, bool) {
	buf := getBuf()
	defer putBuf(buf)
	err := buf.readFrom(http.MaxBytesReader(w, r.Body, maxTxBodyBytes), r.ContentLength)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpErr(w, code, "reading body: %v", err)
		return TxRequest{}, false
	}
	req, err := decodeTxRequest(buf.b)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "bad json: %v", err)
		return TxRequest{}, false
	}
	return req, true
}

// ctxDone reports whether err is a context cancellation or deadline error —
// the request is over, so retrying server-side would be wasted work.
func ctxDone(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *Server) applyOps(tx *core.Tx, ops []Op, resp *TxResponse) error {
	for _, op := range ops {
		switch op.Op {
		case "addVertex":
			id, err := tx.AddVertex(op.Data)
			if err != nil {
				return err
			}
			resp.VertexIDs = append(resp.VertexIDs, int64(id))
		case "putVertex":
			if err := tx.PutVertex(core.VertexID(op.ID), op.Data); err != nil {
				return err
			}
		case "delVertex":
			if err := tx.DeleteVertex(core.VertexID(op.ID)); err != nil {
				return err
			}
		case "insertEdge":
			if err := tx.InsertEdge(core.VertexID(op.Src), core.Label(op.Label), core.VertexID(op.Dst), op.Props); err != nil {
				return err
			}
		case "upsertEdge":
			if err := tx.AddEdge(core.VertexID(op.Src), core.Label(op.Label), core.VertexID(op.Dst), op.Props); err != nil {
				return err
			}
		case "deleteEdge":
			err := tx.DeleteEdge(core.VertexID(op.Src), core.Label(op.Label), core.VertexID(op.Dst))
			if err != nil && err != core.ErrNotFound {
				return err
			}
		default:
			return fmt.Errorf("unknown op %q", op.Op)
		}
	}
	return nil
}

// pathInts parses the numeric tail segments of a URL path after prefix
// into out, one per element.
// Vertex IDs, labels and epochs are all non-negative, so negative segments
// are rejected uniformly here.
func pathInts(path, prefix string, out []int64) error {
	rest := strings.Trim(strings.TrimPrefix(path, prefix), "/")
	if n := strings.Count(rest, "/") + 1; n != len(out) {
		return fmt.Errorf("want %d path segments, got %d", len(out), n)
	}
	for i := range out {
		p, tail, _ := strings.Cut(rest, "/")
		rest = tail
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return fmt.Errorf("segment %q: %w", p, err)
		}
		if v < 0 {
			return fmt.Errorf("segment %q: must be non-negative", p)
		}
		out[i] = v
	}
	return nil
}

// beginRead opens the request's snapshot-isolated view — the caller
// commits it when done — or answers the request itself and returns nil:
// 412 when the min-epoch precondition fails, 503 on begin failures (graph
// closed, request cancelled while waiting for a worker slot). All
// read-only handlers go through here, so they share one acquisition path.
func (s *Server) beginRead(w http.ResponseWriter, r *http.Request) *core.Tx {
	if !s.checkMinEpoch(w, r) {
		return nil
	}
	tx, err := s.G.BeginReadCtx(r.Context())
	if err != nil {
		httpErr(w, http.StatusServiceUnavailable, "%v", err)
		return nil
	}
	return tx
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	var ids [1]int64
	if err := pathInts(r.URL.Path, "/v1/vertex/", ids[:]); err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rd := s.beginRead(w, r)
	if rd == nil {
		return
	}
	defer rd.Commit()
	data, err := rd.GetVertex(core.VertexID(ids[0]))
	if err != nil {
		httpErr(w, http.StatusNotFound, "vertex %d not found", ids[0])
		return
	}
	buf := getBuf()
	buf.b = appendPayload(buf.b, "data", data)
	writeWire(w, buf)
}

func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request) {
	var ids [3]int64
	if err := pathInts(r.URL.Path, "/v1/edge/", ids[:]); err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rd := s.beginRead(w, r)
	if rd == nil {
		return
	}
	defer rd.Commit()
	props, err := rd.GetEdge(core.VertexID(ids[0]), core.Label(ids[1]), core.VertexID(ids[2]))
	if err != nil {
		httpErr(w, http.StatusNotFound, "edge not found")
		return
	}
	buf := getBuf()
	buf.b = appendPayload(buf.b, "props", props)
	writeWire(w, buf)
}

// Neighbor is one adjacency list element.
type Neighbor struct {
	Dst   int64  `json:"dst"`
	Props []byte `json:"props,omitempty"`
}

// nextParam cuts the first key=value pair off a raw query string — the
// one-pass form of url.ParseQuery, with its rules: pairs are split at '&',
// a pair holding ';' or a bad escape is dropped, a missing '=' is an empty
// value. Only a pair that uses %XX or '+' is unescaped (and allocates).
// ok is false once the query is used up.
func nextParam(query string) (key, value, rest string, ok bool) {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		if strings.ContainsAny(pair, "%+") {
			k, v, _ := strings.Cut(pair, "=")
			k, err1 := url.QueryUnescape(k)
			v, err2 := url.QueryUnescape(v)
			if err1 != nil || err2 != nil {
				continue
			}
			return k, v, query, true
		}
		key, value, _ = strings.Cut(pair, "=")
		return key, value, query, true
	}
	return "", "", "", false
}

// queryInt parses the optional non-negative integer query parameter name
// from its raw value q, returning def when absent and an error on junk
// (including negatives) — silently ignoring a malformed limit would return
// the full adjacency list to a client that asked for a page.
func queryInt(name, q string, def int64) (int64, error) {
	if q == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(q, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: not an integer", name, q)
	}
	if v < 0 {
		return 0, fmt.Errorf("%s=%q: must be non-negative", name, q)
	}
	return v, nil
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	var ids [2]int64
	if err := pathInts(r.URL.Path, "/v1/neighbors/", ids[:]); err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var rawLimit string
	for key, value, rest, ok := nextParam(r.URL.RawQuery); ok; key, value, rest, ok = nextParam(rest) {
		if key == "limit" && rawLimit == "" {
			rawLimit = value
		}
	}
	limit, err := queryInt("limit", rawLimit, 0)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rd := s.beginRead(w, r)
	if rd == nil {
		return
	}
	defer rd.Commit()
	// Props alias block memory: they are encoded straight from the
	// iterator, while the view is open.
	buf := getBuf()
	buf.b = append(buf.b, '[')
	it := rd.Neighbors(core.VertexID(ids[0]), core.Label(ids[1]))
	for n := int64(0); it.Next(); {
		buf.b = appendNeighbor(buf.b, int64(it.Dst()), it.Props())
		if n++; n == limit {
			break
		}
	}
	buf.b = append(buf.b, "]\n"...)
	writeWire(w, buf)
}

func (s *Server) handleDegree(w http.ResponseWriter, r *http.Request) {
	var ids [2]int64
	if err := pathInts(r.URL.Path, "/v1/degree/", ids[:]); err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rd := s.beginRead(w, r)
	if rd == nil {
		return
	}
	defer rd.Commit()
	buf := getBuf()
	buf.b = appendDegree(buf.b, rd.Degree(core.VertexID(ids[0]), core.Label(ids[1])))
	writeWire(w, buf)
}

// TraverseResponse is the /v1/traverse result: the final frontier and the
// epoch the traversal observed. Explain carries the hop plan when the
// request asked for one (?explain=1 annotated with runtime statistics,
// ?explain=plan compiled only, Vertices omitted).
type TraverseResponse struct {
	Epoch    int64         `json:"epoch"`
	Vertices []int64       `json:"vertices"`
	Explain  *core.Explain `json:"explain,omitempty"`
}

func (s *Server) handleTraverse(w http.ResponseWriter, r *http.Request) {
	if !s.checkMinEpoch(w, r) {
		return
	}
	var ids [1]int64
	if err := pathInts(r.URL.Path, "/v1/traverse/", ids[:]); err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// One pass over the query: every out in order, the first non-empty
	// value of each other parameter, anything else ignored.
	var (
		outsArr [8]string // the default MaxTraverseHops, so outs stays on the stack
		outs    = outsArr[:0]
		q       struct{ limit, dedup, parallel, direction, dstmin, dstmax, asof, explain string }
	)
	first := func(p *string, value string) {
		if *p == "" {
			*p = value
		}
	}
	for key, value, rest, ok := nextParam(r.URL.RawQuery); ok; key, value, rest, ok = nextParam(rest) {
		switch key {
		case "out":
			outs = append(outs, value)
		case "limit":
			first(&q.limit, value)
		case "dedup":
			first(&q.dedup, value)
		case "parallel":
			first(&q.parallel, value)
		case "direction":
			first(&q.direction, value)
		case "dstmin":
			first(&q.dstmin, value)
		case "dstmax":
			first(&q.dstmax, value)
		case "asof":
			first(&q.asof, value)
		case "explain":
			first(&q.explain, value)
		}
	}
	if len(outs) == 0 {
		httpErr(w, http.StatusBadRequest, "at least one out=LABEL hop required")
		return
	}
	if max := s.MaxTraverseHops; max > 0 && len(outs) > max {
		httpErr(w, http.StatusBadRequest, "at most %d hops per traversal", max)
		return
	}
	t := core.Traverse(core.VertexID(ids[0]))
	if s.MaxTraverseFrontier > 0 {
		t.MaxFrontier(s.MaxTraverseFrontier)
	}
	for _, o := range outs {
		label, err := strconv.ParseInt(o, 10, 64)
		if err != nil || label < 0 {
			httpErr(w, http.StatusBadRequest, "out=%q: must be a non-negative label", o)
			return
		}
		t.Out(core.Label(label))
	}
	limit, err := queryInt("limit", q.limit, 0)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if limit > 0 {
		t.Limit(int(limit))
	}
	switch q.dedup {
	case "1", "true":
		t.Dedup()
	case "", "0", "false":
	default:
		httpErr(w, http.StatusBadRequest, "dedup=%q: want 1/true/0/false", q.dedup)
		return
	}
	parallel, err := queryInt("parallel", q.parallel, 0)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if max := int64(s.MaxTraverseParallel); max > 0 && parallel > max {
		parallel = max
	}
	if parallel > 0 {
		t.Parallel(int(parallel))
	}
	switch dir := q.direction; dir {
	case "", "auto":
	case "topdown":
		t.Direction(core.DirectionTopDown)
	case "bottomup":
		t.Direction(core.DirectionBottomUp)
	default:
		httpErr(w, http.StatusBadRequest, "direction=%q: want auto/topdown/bottomup", dir)
		return
	}
	dstMin, err := queryInt("dstmin", q.dstmin, -1)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	dstMax, err := queryInt("dstmax", q.dstmax, -1)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if dstMin >= 0 || dstMax >= 0 {
		// A destination ID range is a pure per-vertex predicate, so it
		// compiles to FilterDst and is pushed into the hop's TEL scans.
		lo, hi := dstMin, dstMax
		t.FilterDst(func(v core.VertexID) bool {
			return (lo < 0 || int64(v) >= lo) && (hi < 0 || int64(v) <= hi)
		})
	}
	asOf, err := queryInt("asof", q.asof, -1)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	explain := q.explain
	switch explain {
	case "", "0", "false", "1", "true", "plan":
	default:
		httpErr(w, http.StatusBadRequest, "explain=%q: want 1/true/plan/0/false", explain)
		return
	}
	if explain == "plan" {
		// Compile-only: the hop plan without touching the graph.
		writeJSON(w, TraverseResponse{Explain: t.Explain()})
		return
	}
	// Pin the snapshot here (rather than RunGraph) so the response can
	// report the epoch the traversal actually observed.
	var snap *core.Snapshot
	if asOf >= 0 {
		t.AsOf(asOf)
		snap, err = s.G.SnapshotAtCtx(r.Context(), asOf)
	} else {
		snap, err = s.G.SnapshotCtx(r.Context())
	}
	if err != nil {
		switch {
		case errors.Is(err, core.ErrHistoryGone):
			httpErr(w, http.StatusGone, "%v", err)
		case errors.Is(err, core.ErrClosed) || ctxDone(err):
			httpErr(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	defer snap.Release()
	var (
		res []core.VertexID
		ex  *core.Explain
	)
	if explain == "1" || explain == "true" {
		res, ex, err = t.RunExplain(r.Context(), snap)
	} else {
		res, err = t.Run(r.Context(), snap)
	}
	if err != nil {
		code := http.StatusServiceUnavailable
		if errors.Is(err, core.ErrFrontierTooLarge) {
			code = http.StatusUnprocessableEntity
		}
		if errors.Is(err, core.ErrBottomUpUnsupported) {
			code = http.StatusBadRequest
		}
		if ex != nil {
			// An explained run reports the annotated plan alongside the
			// error — the plan shows which hop blew the budget.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "explain": ex})
			return
		}
		httpErr(w, code, "%v", err)
		return
	}
	if ex != nil {
		resp := TraverseResponse{Epoch: snap.ReadEpoch(), Vertices: make([]int64, len(res)), Explain: ex}
		for i, v := range res {
			resp.Vertices[i] = int64(v)
		}
		writeJSON(w, resp)
		return
	}
	buf := getBuf()
	buf.b = appendTraverse(buf.b, snap.ReadEpoch(), res)
	writeWire(w, buf)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w) {
		return
	}
	if err := s.G.Checkpoint(); err != nil {
		httpErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// jsonContentType is shared by every response: assigning the slice skips
// the per-request allocation of Header.Set.
var jsonContentType = []string{"application/json"}

// writeWire sends a hot endpoint's encoded 200 response with its
// Content-Length in one Write, and returns buf to the pool.
func writeWire(w http.ResponseWriter, buf *wireBuf) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(buf.b))}
	w.Write(buf.b)
	putBuf(buf)
}

// writeJSON answers a cold endpoint through encoding/json.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
