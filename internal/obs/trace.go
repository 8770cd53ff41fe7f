package obs

import (
	"context"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. An integer value is kept as
// an integer and formatted only when a trace is read, so annotating an
// unsampled span, or offering a fast op to SlowOp, allocates nothing.
type Attr struct {
	Key   string
	str   string
	num   int64
	isInt bool
}

// String builds a string-valued attr.
func String(k, v string) Attr { return Attr{Key: k, str: v} }

// Int builds an integer-valued attr.
func Int(k string, v int64) Attr { return Attr{Key: k, num: v, isInt: true} }

// value returns the attr's value as a trace reader sees it.
func (a Attr) value() string {
	if a.isInt {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// SampleRate is the fraction of root spans recorded, in (0, 1].
	// 0 picks the default (1/64); negative disables tracing entirely.
	SampleRate float64
	// SlowOpThreshold: ops at or above this duration are captured in the
	// slow-op log with their span tree regardless of sampling. 0 picks
	// the default (100ms); negative disables the slow-op log.
	SlowOpThreshold time.Duration
	// RingSize bounds the recent-trace ring (default 256). The slow-op
	// ring is half that.
	RingSize int
}

// DefaultSampleRate is the root-span sampling rate when none is set.
const DefaultSampleRate = 1.0 / 64

// DefaultSlowOpThreshold is the slow-op capture threshold when none is set.
const DefaultSlowOpThreshold = 100 * time.Millisecond

// Tracer makes sampling decisions and owns the bounded rings of recent
// and slow traces. A nil *Tracer is valid and inert: every method,
// including StartSpan, degrades to a no-op span, so instrumented code
// never branches on "is tracing on".
type Tracer struct {
	every      uint64 // record 1-in-every root spans; 0 = disabled
	slowThresh time.Duration
	n          atomic.Uint64
	recent     spanRing
	slow       spanRing
}

// NewTracer builds a tracer from opts (see TracerOptions for defaults).
func NewTracer(opts TracerOptions) *Tracer {
	rate := opts.SampleRate
	if rate == 0 {
		rate = DefaultSampleRate
	}
	var every uint64
	if rate > 0 {
		if rate > 1 {
			rate = 1
		}
		every = uint64(math.Round(1 / rate))
		if every == 0 {
			every = 1
		}
	}
	thresh := opts.SlowOpThreshold
	if thresh == 0 {
		thresh = DefaultSlowOpThreshold
	}
	if thresh < 0 {
		thresh = 0 // disabled
	}
	size := opts.RingSize
	if size <= 0 {
		size = 256
	}
	t := &Tracer{every: every, slowThresh: thresh}
	t.recent.init(size)
	t.slow.init(max(size/2, 16))
	return t
}

// SlowOpThreshold reports the active slow-op capture threshold (0 when
// the slow-op log is disabled).
func (t *Tracer) SlowOpThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slowThresh
}

// Span is one timed operation, possibly with children. Spans are created
// by Tracer.StartSpan and finished with End; a span that was not sampled
// is represented by a nil *Span, whose methods are all safe no-ops.
type Span struct {
	tracer *Tracer
	root   *Span // self for root spans
	name   string
	start  time.Time

	mu       sync.Mutex
	dur      time.Duration
	attrs    []Attr
	children []*Span
	slow     bool // force into the slow-op ring at root End
}

type ctxKey struct{}

// StartSpan begins a span. For a root span (no span in ctx) the tracer's
// sampling decision applies; child spans inherit their parent's decision.
// The returned context carries the span so nested StartSpan calls build
// the tree. The caller must call End() on the returned span on every
// path — enforced by the spanend analyzer in internal/lint.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent, ok := ctx.Value(ctxKey{}).(*Span); ok && parent != nil {
		child := &Span{tracer: parent.tracer, root: parent.root, name: name, start: time.Now()}
		parent.mu.Lock()
		parent.children = append(parent.children, child)
		parent.mu.Unlock()
		return context.WithValue(ctx, ctxKey{}, child), child
	}
	if t == nil || t.every == 0 || t.n.Add(1)%t.every != 0 {
		return ctx, nil
	}
	return t.newRoot(ctx, name)
}

// StartAlways is StartSpan minus sampling: the root span is always
// recorded. For rare, expensive operations (checkpoints, recovery) that
// should never be missing from the trace ring.
func (t *Tracer) StartAlways(ctx context.Context, name string) (context.Context, *Span) {
	if parent, ok := ctx.Value(ctxKey{}).(*Span); ok && parent != nil {
		return t.StartSpan(ctx, name)
	}
	if t == nil || t.recent.spans == nil {
		return ctx, nil
	}
	return t.newRoot(ctx, name)
}

func (t *Tracer) newRoot(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{tracer: t, name: name, start: time.Now()}
	sp.root = sp
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// SpanFromContext returns the active span in ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan begins a child of the span carried by ctx, if any. Without an
// active (sampled) span in ctx it is a no-op returning a nil span; use a
// Tracer to start roots.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if sp := SpanFromContext(ctx); sp != nil {
		return sp.tracer.StartSpan(ctx, name)
	}
	return ctx, nil
}

// SetAttr annotates the span. Safe on a nil (unsampled) span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// MarkSlow forces the span's root trace into the slow-op ring at End,
// regardless of duration — used to surface errors on otherwise-fast ops.
func (s *Span) MarkSlow() {
	if s == nil {
		return
	}
	s.root.mu.Lock()
	s.root.slow = true
	s.root.mu.Unlock()
}

// End finishes the span. Ending a root span publishes it to the recent
// ring, and to the slow-op ring when it exceeded the tracer's threshold
// (or was marked slow). Safe on a nil span; ending twice keeps the first
// duration and republishing is skipped.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.dur != 0 {
		s.mu.Unlock()
		return
	}
	s.dur = time.Since(s.start)
	if s.dur == 0 {
		s.dur = time.Nanosecond
	}
	dur, slow := s.dur, s.slow
	s.mu.Unlock()
	if s.root != s {
		return
	}
	t := s.tracer
	t.recent.push(s)
	if slow || (t.slowThresh > 0 && dur >= t.slowThresh) {
		t.slow.push(s)
	}
}

// SlowOp records a single-node slow-op entry when d meets the tracer's
// threshold. It is the cheap form of slow-op capture for hot paths that
// already measured d for a histogram: below threshold the cost is one
// comparison. Safe on a nil tracer.
func (t *Tracer) SlowOp(name string, d time.Duration, attrs ...Attr) {
	if t == nil || t.slowThresh == 0 || d < t.slowThresh {
		return
	}
	// A copy, so the variadic slice stays on the caller's stack below the
	// threshold.
	sp := &Span{tracer: t, name: name, start: time.Now().Add(-d), dur: d, attrs: slices.Clone(attrs)}
	sp.root = sp
	t.slow.push(sp)
	t.recent.push(sp)
}

// ErrorOp records a zero-duration entry straight into the slow-op ring,
// unconditionally — for errors an operator must be able to find (e.g.
// checkpoint prune failures carrying the stuck path). Safe on a nil
// tracer.
func (t *Tracer) ErrorOp(name string, attrs ...Attr) {
	if t == nil || t.slow.spans == nil {
		return
	}
	sp := &Span{tracer: t, name: name, start: time.Now(), dur: time.Nanosecond, attrs: attrs, slow: true}
	sp.root = sp
	t.slow.push(sp)
}

// SpanSnapshot is the JSON-ready copy of a finished span tree, served by
// /v1/traces.
type SpanSnapshot struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationNs int64             `json:"durationNs"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []SpanSnapshot    `json:"children,omitempty"`
}

func (s *Span) snapshot() SpanSnapshot {
	s.mu.Lock()
	out := SpanSnapshot{Name: s.name, Start: s.start, DurationNs: s.dur.Nanoseconds()}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.value()
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.snapshot())
	}
	return out
}

// Recent returns up to n recently recorded traces, newest first. n <= 0
// means all buffered.
func (t *Tracer) Recent(n int) []SpanSnapshot {
	if t == nil {
		return nil
	}
	return t.recent.dump(n)
}

// Slow returns up to n slow-op traces, newest first. n <= 0 means all
// buffered.
func (t *Tracer) Slow(n int) []SpanSnapshot {
	if t == nil {
		return nil
	}
	return t.slow.dump(n)
}

// spanRing is a bounded MRU buffer of finished root spans.
type spanRing struct {
	mu    sync.Mutex
	spans []*Span
	next  int
	full  bool
}

func (r *spanRing) init(n int) { r.spans = make([]*Span, n) }

func (r *spanRing) push(s *Span) {
	r.mu.Lock()
	r.spans[r.next] = s
	r.next++
	if r.next == len(r.spans) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

func (r *spanRing) dump(n int) []SpanSnapshot {
	r.mu.Lock()
	var got []*Span
	size := len(r.spans)
	if r.full {
		got = make([]*Span, 0, size)
		for i := 1; i <= size; i++ {
			got = append(got, r.spans[(r.next-i+size)%size])
		}
	} else {
		for i := r.next - 1; i >= 0; i-- {
			got = append(got, r.spans[i])
		}
	}
	r.mu.Unlock()
	if n > 0 && len(got) > n {
		got = got[:n]
	}
	out := make([]SpanSnapshot, 0, len(got))
	for _, s := range got {
		out = append(out, s.snapshot())
	}
	return out
}
