// Fixture: span lifecycle violations for the spanend analyzer. The
// mini-API mirrors internal/obs by shape — StartSpan/StartAlways
// returning (ctx, *Span) — which is what the analyzer matches on.
package spans

import "context"

type Span struct{ ended bool }

func (s *Span) End()             {}
func (s *Span) SetAttr(a ...int) {}
func (s *Span) MarkSlow()        {}

type Tracer struct{}

func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}

func (t *Tracer) StartAlways(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}

func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}

func work() error { return nil }

func neverEnded(ctx context.Context) {
	_, sp := StartSpan(ctx, "op") // want `span sp is not ended on the fall-through path`
	sp.SetAttr(1)
}

func earlyReturnLeaks(ctx context.Context) error {
	_, sp := StartSpan(ctx, "op")
	if err := work(); err != nil {
		return err // want `span sp \(started at .*\) is not ended on this return path`
	}
	sp.End()
	return nil
}

func methodStartLeaks(ctx context.Context, t *Tracer) {
	_, sp := t.StartAlways(ctx, "op") // want `span sp is not ended on the fall-through path`
	sp.MarkSlow()
}

func endedEverywhere(ctx context.Context) error {
	_, sp := StartSpan(ctx, "op")
	if err := work(); err != nil {
		sp.End()
		return err
	}
	sp.End()
	return nil
}

func deferred(ctx context.Context) error {
	_, sp := StartSpan(ctx, "op")
	defer sp.End()
	return work()
}

func deferredClosure(ctx context.Context) error {
	_, sp := StartSpan(ctx, "op")
	defer func() {
		sp.SetAttr(2)
		sp.End()
	}()
	return work()
}

func blankResult(ctx context.Context) {
	_, _ = StartSpan(ctx, "op") // blank: no local obligation
}

func blankAssigned(ctx context.Context) {
	_, sp := StartSpan(ctx, "op") // want `span sp is not ended on the fall-through path`
	_ = sp                        // discarding the span does not end it
}

type holder struct{ span *Span }

func fieldTarget(ctx context.Context, h *holder) {
	// Struct-field spans are the holder's lifecycle, not this function's.
	_, h.span = StartSpan(ctx, "op")
}

func escapes(ctx context.Context) *Span {
	// Returned: the caller owns End now.
	_, sp := StartSpan(ctx, "op")
	return sp
}

func passedAlong(ctx context.Context) {
	_, sp := StartSpan(ctx, "op")
	endIt(sp)
}

func endIt(sp *Span) { sp.End() }

func nilChecked(ctx context.Context, t *Tracer) {
	_, sp := t.StartSpan(ctx, "op")
	if sp == nil {
		return // nil span: never started, nothing owed
	}
	sp.End()
}

func perIteration(ctx context.Context, items []int) {
	for range items {
		_, sp := StartSpan(ctx, "op")
		sp.End()
	}
}

func loopLeak(ctx context.Context, items []int) {
	for range items {
		_, sp := StartSpan(ctx, "op") // want `span sp is not ended on the fall-through path`
		sp.SetAttr(3)
	}
}

func switchEnded(ctx context.Context, k int) {
	_, sp := StartSpan(ctx, "op")
	switch k {
	case 0:
		sp.End()
	default:
		sp.End()
	}
}

func switchLeak(ctx context.Context, k int) {
	_, sp := StartSpan(ctx, "op") // want `span sp is not ended on the fall-through path`
	switch k {
	case 0:
		sp.End()
	case 1:
		// this arm forgets End
	}
}
