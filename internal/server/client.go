package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"livegraph/internal/core"
)

// Client is a minimal Go client for the HTTP API, used by cmd/lgserver's
// smoke mode and by tests; applications embedding the library should use
// package livegraph directly.
//
// A Client may target a replicated deployment: Base is the primary (all
// writes go there) and Replicas lists read endpoints. Reads rotate across
// the replicas and fail over — to the next replica and finally the
// primary — on connection errors, 5xx, and staleness rejections. The
// client tracks the highest commit epoch it has observed (from its own
// writes and from traversal responses) and stamps reads with a minimum
// epoch derived from MaxStaleness, so a replica that cannot prove it is
// fresh enough answers 412 and the read lands somewhere that can.
type Client struct {
	Base     string   // primary: writes, checkpoint, last-resort reads
	Replicas []string // read replicas (optional)
	HC       *http.Client

	// MaxRetries caps client-side retries of retryable transaction
	// failures (HTTP 409, the server's "kept conflicting" answer —
	// the wire form of the engine's IsRetryable contract). Each retry
	// backs off exponentially from RetryBase, capped at RetryMax.
	MaxRetries int
	RetryBase  time.Duration
	RetryMax   time.Duration

	// MaxStaleness bounds how many epochs a replica may lag behind this
	// client's last observed commit epoch and still serve its reads:
	// 0 (the default) is read-your-writes — a replica must have applied
	// every commit this client has seen; > 0 allows that much slack;
	// -1 disables the bound entirely (any replica, however stale).
	MaxStaleness int64

	// MinEpoch is an absolute read floor applied regardless of what this
	// client has observed — e.g. an epoch obtained out of band from
	// another client's write.
	MinEpoch int64

	lastEpoch atomic.Int64 // highest commit epoch observed
	rr        atomic.Int64 // replica round-robin cursor
}

// NewClient targets a primary at base (e.g. "http://localhost:7450"),
// optionally with read replicas.
func NewClient(base string, replicas ...string) *Client {
	return &Client{
		Base:       base,
		Replicas:   replicas,
		HC:         http.DefaultClient,
		MaxRetries: 4,
		RetryBase:  2 * time.Millisecond,
		RetryMax:   100 * time.Millisecond,
	}
}

// ObserveEpoch folds an externally learned commit epoch into the client's
// read-your-writes floor (Tx and Traverse do this automatically).
func (c *Client) ObserveEpoch(e int64) {
	for {
		cur := c.lastEpoch.Load()
		if e <= cur || c.lastEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// LastEpoch returns the highest commit epoch this client has observed.
func (c *Client) LastEpoch() int64 { return c.lastEpoch.Load() }

// requiredEpoch computes the minimum applied epoch an endpoint must prove
// before serving this client's next read.
func (c *Client) requiredEpoch() int64 {
	min := c.MinEpoch
	if c.MaxStaleness >= 0 {
		if m := c.lastEpoch.Load() - c.MaxStaleness; m > min {
			min = m
		}
	}
	return min
}

// readEndpoint returns the i-th endpoint a read should try, for i in
// [0, len(Replicas)]: the replicas, rotated by start for load spreading,
// then the primary as the endpoint of last resort (it trivially satisfies
// any epoch this client observed).
func (c *Client) readEndpoint(start, i int) string {
	if i == len(c.Replicas) {
		return c.Base
	}
	return c.Replicas[(start+i)%len(c.Replicas)]
}

// Tx executes ops atomically and returns created vertex IDs. A 409
// response means the server aborted the transaction under
// first-committer-wins after exhausting its own retries — the same
// transient condition the engine reports via IsRetryable — so the client
// retries it too, with capped exponential backoff, before giving up.
func (c *Client) Tx(ops ...Op) ([]int64, error) {
	// The body is not pooled: the transport may still be sending it when
	// an early answer (403, 413) has already come back.
	size := len(`{"ops":[]}`)
	for i := range ops {
		size += 96 + base64.StdEncoding.EncodedLen(len(ops[i].Data)) + base64.StdEncoding.EncodedLen(len(ops[i].Props))
	}
	body := appendTxRequest(make([]byte, 0, size), ops)
	backoff := c.RetryBase
	if backoff <= 0 {
		backoff = 2 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.HC.Post(c.Base+"/v1/tx", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			buf, err := readBody(resp)
			if err != nil {
				return nil, err
			}
			out, err := decodeTxResponse(buf.b)
			putBuf(buf)
			if err != nil {
				return nil, err
			}
			c.ObserveEpoch(out.Epoch)
			return out.VertexIDs, nil
		}
		lastErr = apiError(resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || attempt >= c.MaxRetries {
			return nil, lastErr
		}
		time.Sleep(backoff)
		backoff *= 2
		if max := c.RetryMax; max > 0 && backoff > max {
			backoff = max
		}
	}
}

// AddVertex creates one vertex.
func (c *Client) AddVertex(data []byte) (int64, error) {
	ids, err := c.Tx(Op{Op: "addVertex", Data: data})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Vertex fetches a vertex payload.
func (c *Client) Vertex(id int64) ([]byte, error) {
	var a [pathBufLen]byte
	buf, err := c.get(strconv.AppendInt(append(a[:0], "/v1/vertex/"...), id, 10))
	if err != nil {
		return nil, err
	}
	defer putBuf(buf)
	return decodePayload(buf.b, vertexKeys)
}

// Edge fetches edge properties.
func (c *Client) Edge(src, label, dst int64) ([]byte, error) {
	var a [pathBufLen]byte
	buf, err := c.get(appendPath(a[:0], "/v1/edge/", src, label, dst))
	if err != nil {
		return nil, err
	}
	defer putBuf(buf)
	return decodePayload(buf.b, edgeKeys)
}

// Neighbors fetches the adjacency list, newest first (limit 0 = all).
func (c *Client) Neighbors(src, label int64, limit int) ([]Neighbor, error) {
	var a [pathBufLen]byte
	path := appendPath(a[:0], "/v1/neighbors/", src, label)
	if limit > 0 {
		path = strconv.AppendInt(append(path, "?limit="...), int64(limit), 10)
	}
	buf, err := c.get(path)
	if err != nil {
		return nil, err
	}
	defer putBuf(buf)
	return decodeNeighbors(buf.b)
}

// Degree fetches the visible edge count.
func (c *Client) Degree(src, label int64) (int, error) {
	var a [pathBufLen]byte
	buf, err := c.get(appendPath(a[:0], "/v1/degree/", src, label))
	if err != nil {
		return 0, err
	}
	defer putBuf(buf)
	return decodeDegree(buf.b)
}

// TraverseOptions tune a client-side traversal; the zero value (or nil)
// means no limit, no dedup, latest epoch, server-default parallelism.
type TraverseOptions struct {
	Limit   int   // cap results (0 = all)
	Dedup   bool  // emit each destination at most once per hop
	AsOf    int64 // past epoch to observe when AsOfSet (0 is a valid epoch)
	AsOfSet bool  // send the asof parameter
	// Parallel requests a worker-pool width for the server's morsel-driven
	// frontier engine (clamped by the server's MaxTraverseParallel; 1
	// forces a sequential walk, 0 defers to the server default).
	Parallel int
	// Direction forces the expansion strategy: "topdown" or "bottomup"
	// ("" or "auto" lets the executor decide per hop from degree
	// statistics). Forcing bottomup without Dedup is a client error (400).
	Direction string
	// MinDst/MaxDst constrain final-hop destinations to an ID range; a
	// negative bound is open. Sent only when DstRangeSet — the server
	// compiles the range to a destination predicate pushed into the TEL
	// scan loop.
	MinDst, MaxDst int64
	DstRangeSet    bool
}

// Traverse runs a multi-hop traversal on the server: one hop per label in
// out, in order. It returns the final frontier and the epoch observed.
func (c *Client) Traverse(src int64, out []int64, opt *TraverseOptions) ([]int64, int64, error) {
	buf, err := c.traverse(src, out, opt, "")
	if err != nil {
		return nil, 0, err
	}
	defer putBuf(buf)
	epoch, vertices, err := decodeTraverse(buf.b)
	if err != nil {
		return nil, 0, err
	}
	c.ObserveEpoch(epoch)
	return vertices, epoch, nil
}

// TraverseExplain runs the traversal with ?explain=1: the server executes
// it and returns the hop plan annotated with per-hop frontier sizes,
// dedup hits, morsel widths and budget cuts alongside the results.
func (c *Client) TraverseExplain(src int64, out []int64, opt *TraverseOptions) (*TraverseResponse, error) {
	return c.traverseExplained(src, out, opt, "1")
}

// ExplainPlan compiles the traversal on the server without executing it
// (?explain=plan): only the static hop plan comes back.
func (c *Client) ExplainPlan(src int64, out []int64, opt *TraverseOptions) (*core.Explain, error) {
	resp, err := c.traverseExplained(src, out, opt, "plan")
	if err != nil {
		return nil, err
	}
	return resp.Explain, nil
}

// traverseExplained is the cold form of Traverse: an explain response
// carries the hop plan, which only encoding/json knows how to decode.
func (c *Client) traverseExplained(src int64, out []int64, opt *TraverseOptions, explain string) (*TraverseResponse, error) {
	buf, err := c.traverse(src, out, opt, explain)
	if err != nil {
		return nil, err
	}
	defer putBuf(buf)
	var resp TraverseResponse
	if err := json.Unmarshal(buf.b, &resp); err != nil {
		return nil, err
	}
	if explain != "plan" {
		c.ObserveEpoch(resp.Epoch)
	}
	return &resp, nil
}

// traverse sends the traversal and returns the buffered 200 body. The
// query's parameters are in url.Values.Encode's order (sorted by name).
func (c *Client) traverse(src int64, out []int64, opt *TraverseOptions, explain string) (*wireBuf, error) {
	var a [2 * pathBufLen]byte
	path := strconv.AppendInt(append(a[:0], "/v1/traverse/"...), src, 10)
	path = append(path, '?')
	param := func(name, value string) {
		if path[len(path)-1] != '?' {
			path = append(path, '&')
		}
		path = append(append(append(path, name...), '='), value...)
	}
	paramInt := func(name string, v int64) {
		param(name, "")
		path = strconv.AppendInt(path, v, 10)
	}
	if opt == nil {
		opt = &TraverseOptions{}
	}
	if opt.AsOfSet {
		paramInt("asof", opt.AsOf)
	}
	if opt.Dedup {
		param("dedup", "1")
	}
	if opt.Direction != "" && opt.Direction != "auto" {
		param("direction", url.QueryEscape(opt.Direction))
	}
	if opt.DstRangeSet && opt.MaxDst >= 0 {
		paramInt("dstmax", opt.MaxDst)
	}
	if opt.DstRangeSet && opt.MinDst >= 0 {
		paramInt("dstmin", opt.MinDst)
	}
	if explain != "" {
		param("explain", explain)
	}
	if opt.Limit > 0 {
		paramInt("limit", int64(opt.Limit))
	}
	for _, l := range out {
		paramInt("out", l)
	}
	if opt.Parallel > 0 {
		paramInt("parallel", int64(opt.Parallel))
	}
	return c.get(path)
}

// Stats fetches the primary's engine counters. Deliberately NOT routed:
// stats are per-node observations (a replica reports its own lag and
// zero commits), so monitoring must name the node it is asking — use
// StatsOf for a specific replica.
func (c *Client) Stats() (map[string]int64, error) {
	return c.StatsOf(c.Base)
}

// StatsOf fetches one endpoint's engine counters.
func (c *Client) StatsOf(base string) (map[string]int64, error) {
	resp, err := c.HC.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var out map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Checkpoint triggers a durable checkpoint.
func (c *Client) Checkpoint() error {
	resp, err := c.HC.Post(c.Base+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// get performs a routed read: each readEndpoint in turn is tried until
// one serves the request. Connection errors, 5xx, and staleness/role
// rejections (412, 403) fail over to the next endpoint; definitive
// client-side answers (404, 400, 410, 422, ...) return immediately —
// every endpoint would say the same. Replicas are asked to prove they
// satisfy the client's staleness bound via the min-epoch precondition;
// the primary is never asked (it is the freshness source).
//
// get returns the 200 response's body in a pooled buffer; the caller
// decodes it and hands it to putBuf.
func (c *Client) get(path []byte) (*wireBuf, error) {
	min := c.requiredEpoch()
	var lastErr error
	start := int(c.rr.Add(1) - 1)
	for i := 0; i <= len(c.Replicas); i++ {
		base := c.readEndpoint(start, i)
		req, err := http.NewRequest(http.MethodGet, base+string(path), nil)
		if err != nil {
			return nil, err
		}
		if min > 0 && base != c.Base {
			req.Header.Set(MinEpochHeader, strconv.FormatInt(min, 10))
		}
		resp, err := c.HC.Do(req)
		if err != nil {
			lastErr = err // endpoint unreachable: fail over
			continue
		}
		if resp.StatusCode == http.StatusOK {
			return readBody(resp)
		}
		apiErr := apiError(resp)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusPreconditionFailed,
			resp.StatusCode == http.StatusForbidden,
			resp.StatusCode >= 500:
			lastErr = apiErr // stale replica / wrong role / server trouble: fail over
		default:
			return nil, apiErr
		}
	}
	return nil, lastErr
}

// readBody reads a response body to its end into a pooled buffer sized
// from Content-Length, and closes it.
func readBody(resp *http.Response) (*wireBuf, error) {
	buf := getBuf()
	err := buf.readFrom(resp.Body, resp.ContentLength)
	resp.Body.Close()
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	return buf, nil
}

// pathBufLen sizes the stack buffers request paths are built in: a prefix
// and three int64s fit, so building a path allocates nothing.
const pathBufLen = 96

// appendPath appends prefix and the IDs, slash-separated.
func appendPath(b []byte, prefix string, ids ...int64) []byte {
	b = append(b, prefix...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, id, 10)
	}
	return b
}

func apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	if e.Error == "" {
		e.Error = resp.Status
	}
	return fmt.Errorf("livegraph server: %s (http %d)", e.Error, resp.StatusCode)
}
