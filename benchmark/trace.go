package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"livegraph/internal/disk"
)

// The three recorders of the traced pass. They wrap the engine from the
// outside — around the server.Client call, around the server's
// http.Handler and around the disk.Backend — and buffer spans in memory;
// nothing here reads or changes engine internals.

const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Times are nanoseconds
// since process start; Parent is the span that caused it (0 = none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Req    int    `json:"req"` // request index in its list, -1 when not tied to one
	Bytes  int64  `json:"bytes,omitempty"`
	Status int    `json:"status,omitempty"`
	Stage  string `json:"stage,omitempty"`
}

// tracer buffers spans while on. A nil tracer records nothing.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	stage  string
	spans  []span
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	s.Stage = t.stage
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin switches recording on under a stage name; end switches it off.
func (t *tracer) begin(stage string) {
	t.mu.Lock()
	t.stage = stage
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tracer) end() { t.on.Store(false) }

// stageSpans returns the spans of one stage, by name.
func (t *tracer) stageSpans(stage string) map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]span{}
	for _, s := range t.spans {
		if s.Stage == stage {
			out[s.Name] = append(out[s.Name], s)
		}
	}
	return out
}

// writeFile dumps every span as JSON lines.
func (t *tracer) writeFile(dir, name string) (string, error) {
	path := filepath.Join(dir, name)
	f, err := createFile(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanTransport stamps each outgoing request with its sender's current
// root span ID so the server-side span can name its parent.
type spanTransport struct {
	next http.RoundTripper
	cur  *atomic.Uint64
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := t.cur.Load(); id != 0 {
		r2 := *r
		r2.Header = r.Header.Clone()
		r2.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		r = &r2
	}
	return t.next.RoundTrip(r)
}

// recHandler wraps the server's handler: one child span per request with
// route, status and response bytes.
type recHandler struct {
	next http.Handler
	tr   *tracer
}

type recWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *recWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func routeOf(path string) string {
	rest := strings.TrimPrefix(path, "/v1/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func (h *recHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.enabled() {
		h.next.ServeHTTP(w, r)
		return
	}
	rw := &recWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := nowNs()
	h.next.ServeHTTP(rw, r)
	t1 := nowNs()
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	h.tr.add(span{Parent: parent, Name: "server." + routeOf(r.URL.Path), Start: t0, End: t1, Req: -1, Bytes: rw.bytes, Status: rw.status})
}

// recBackend records what the engine hands to storage. It embeds the
// wrapped interface values and overrides only OpenLog/CreateAtomic and
// the returned files' Write/Sync/Commit, so a new method on any of the
// disk interfaces cannot break this build.
type recBackend struct {
	disk.Backend
	tr *tracer

	logWrites, logBytes, logSyncs   atomic.Int64
	atomicBytes, atomicCommits      atomic.Int64
	logWriteNs, logSyncNs, atomicNs atomic.Int64
}

// bytes is everything handed to storage so far: WAL plus checkpoint files.
func (b *recBackend) bytes() int64 { return b.logBytes.Load() + b.atomicBytes.Load() }

func (b *recBackend) OpenLog(path string, geo disk.LogGeometry) (disk.LogFile, error) {
	f, err := b.Backend.OpenLog(path, geo)
	if err != nil {
		return nil, err
	}
	return &recLog{LogFile: f, b: b}, nil
}

func (b *recBackend) CreateAtomic(path string) (disk.AtomicFile, error) {
	f, err := b.Backend.CreateAtomic(path)
	if err != nil {
		return nil, err
	}
	return &recAtomic{AtomicFile: f, b: b}, nil
}

type recLog struct {
	disk.LogFile
	b *recBackend
}

func (l *recLog) Write(p []byte) (int, error) {
	t0 := nowNs()
	n, err := l.LogFile.Write(p)
	t1 := nowNs()
	l.b.logWrites.Add(1)
	l.b.logBytes.Add(int64(n))
	l.b.logWriteNs.Add(t1 - t0)
	if l.b.tr.enabled() {
		l.b.tr.add(span{Name: "disk.write", Start: t0, End: t1, Req: -1, Bytes: int64(n)})
	}
	return n, err
}

func (l *recLog) Sync() error {
	t0 := nowNs()
	err := l.LogFile.Sync()
	t1 := nowNs()
	l.b.logSyncs.Add(1)
	l.b.logSyncNs.Add(t1 - t0)
	if l.b.tr.enabled() {
		l.b.tr.add(span{Name: "disk.sync", Start: t0, End: t1, Req: -1})
	}
	return err
}

type recAtomic struct {
	disk.AtomicFile
	b *recBackend
}

func (a *recAtomic) Write(p []byte) (int, error) {
	n, err := a.AtomicFile.Write(p)
	a.b.atomicBytes.Add(int64(n))
	return n, err
}

func (a *recAtomic) Commit() error {
	t0 := nowNs()
	err := a.AtomicFile.Commit()
	t1 := nowNs()
	a.b.atomicCommits.Add(1)
	a.b.atomicNs.Add(t1 - t0)
	if a.b.tr.enabled() {
		a.b.tr.add(span{Name: "disk.atomic_commit", Start: t0, End: t1, Req: -1})
	}
	return err
}
