package obs

import (
	"context"
	"testing"
	"time"
)

func TestTracerSamplingAndTree(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1}) // sample everything
	ctx, root := tr.StartSpan(context.Background(), "commit.group")
	if root == nil {
		t.Fatal("rate-1 tracer returned unsampled root")
	}
	root.SetAttr(Int("epoch", 12))
	cctx, child := StartSpan(ctx, "wal.append")
	if child == nil {
		t.Fatal("child of sampled span must be sampled")
	}
	_, grand := StartSpan(cctx, "fsync")
	grand.End()
	child.End()
	root.End()

	got := tr.Recent(0)
	if len(got) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(got))
	}
	g := got[0]
	if g.Name != "commit.group" || g.Attrs["epoch"] != "12" {
		t.Fatalf("bad root snapshot: %+v", g)
	}
	if len(g.Children) != 1 || g.Children[0].Name != "wal.append" {
		t.Fatalf("bad children: %+v", g.Children)
	}
	if len(g.Children[0].Children) != 1 || g.Children[0].Children[0].Name != "fsync" {
		t.Fatalf("bad grandchildren: %+v", g.Children[0].Children)
	}
	if g.DurationNs <= 0 {
		t.Fatalf("root duration not recorded: %d", g.DurationNs)
	}
}

func TestTracerUnsampledAndNil(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1e-9}) // effectively never
	ctx, sp := tr.StartSpan(context.Background(), "op")
	if sp != nil {
		t.Fatal("expected unsampled root")
	}
	// All methods must be no-op safe on nil spans and nil tracers.
	sp.SetAttr(String("k", "v"))
	sp.MarkSlow()
	sp.End()
	if _, c := StartSpan(ctx, "child"); c != nil {
		t.Fatal("child of unsampled ctx must be nil")
	}
	var nilTr *Tracer
	_, nsp := nilTr.StartSpan(context.Background(), "x")
	nsp.End()
	nilTr.SlowOp("x", time.Hour)
	nilTr.ErrorOp("x")
	if nilTr.Recent(0) != nil || nilTr.Slow(0) != nil {
		t.Fatal("nil tracer must report no traces")
	}
}

func TestSlowOpCapture(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: -1, SlowOpThreshold: time.Millisecond})
	tr.SlowOp("fast", 10*time.Microsecond)
	if got := tr.Slow(0); len(got) != 0 {
		t.Fatalf("fast op captured: %+v", got)
	}
	tr.SlowOp("slow.commit", 5*time.Millisecond, String("shard", "2"))
	got := tr.Slow(0)
	if len(got) != 1 || got[0].Name != "slow.commit" || got[0].Attrs["shard"] != "2" {
		t.Fatalf("slow op not captured: %+v", got)
	}
	if got[0].DurationNs != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("slow op duration = %d", got[0].DurationNs)
	}

	tr.ErrorOp("ckpt.prune", String("path", "/x/seg-000"), String("error", "EPERM"))
	got = tr.Slow(0)
	if len(got) != 2 || got[0].Name != "ckpt.prune" || got[0].Attrs["path"] != "/x/seg-000" {
		t.Fatalf("error op not captured newest-first: %+v", got)
	}
}

func TestSlowSpanTreeCapture(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, SlowOpThreshold: time.Nanosecond})
	ctx, root := tr.StartSpan(context.Background(), "slow.op")
	_, c := StartSpan(ctx, "stage")
	c.End()
	time.Sleep(time.Millisecond)
	root.End()
	got := tr.Slow(0)
	if len(got) != 1 || len(got[0].Children) != 1 {
		t.Fatalf("slow ring should hold the full span tree: %+v", got)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1, RingSize: 16})
	for i := 0; i < 100; i++ {
		_, sp := tr.StartSpan(context.Background(), "op")
		sp.End()
	}
	if got := tr.Recent(0); len(got) != 16 {
		t.Fatalf("ring not bounded: %d", len(got))
	}
	if got := tr.Recent(5); len(got) != 5 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

func TestStartAlways(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1e-9})
	_, sp := tr.StartAlways(context.Background(), "checkpoint")
	if sp == nil {
		t.Fatal("StartAlways must bypass sampling")
	}
	sp.End()
	if got := tr.Recent(0); len(got) != 1 || got[0].Name != "checkpoint" {
		t.Fatalf("forced span not recorded: %+v", got)
	}
}

// TestLazyAttrs: an integer attr is formatted only when a trace is read, so
// annotating an unsampled span and offering SlowOp a fast op allocate
// nothing, while a recorded trace reads the same strings as ever.
func TestLazyAttrs(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleRate: 1e-9, SlowOpThreshold: time.Hour})
	_, sp := tr.StartSpan(context.Background(), "op")
	if sp != nil {
		t.Fatal("expected unsampled root")
	}
	v := int64(1 << 40) // past strconv's small-number cache
	if n := testing.AllocsPerRun(100, func() { sp.SetAttr(Int("vertex", v)) }); n != 0 {
		t.Errorf("SetAttr(Int) on an unsampled span: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.SlowOp("tx.commit", time.Millisecond, Int("epoch", v)) }); n != 0 {
		t.Errorf("SlowOp under its threshold: %v allocations, want 0", n)
	}

	rec := NewTracer(TracerOptions{SampleRate: 1, SlowOpThreshold: time.Nanosecond})
	_, root := rec.StartSpan(context.Background(), "commit.group")
	root.SetAttr(Int("epoch", -7), Int("txs", v), String("error", "disk full"))
	root.End()
	rec.SlowOp("tx.commit", time.Second, Int("epoch", 99))
	got := rec.Recent(0)
	if len(got) != 2 {
		t.Fatalf("recent traces = %d, want 2", len(got))
	}
	if a := got[0].Attrs; a["epoch"] != "99" {
		t.Errorf("slow-op attrs = %v", a)
	}
	if a := got[1].Attrs; a["epoch"] != "-7" || a["txs"] != "1099511627776" || a["error"] != "disk full" {
		t.Errorf("span attrs = %v", a)
	}
}
