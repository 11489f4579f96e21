package obs

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/parallel"
)

// TestNilSafety exercises every entry point on nil receivers: none may
// panic, and none may record anything.
func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.Tracing() {
		t.Error("nil observer claims to trace")
	}
	if o.Metrics() != nil || o.Logger() != nil {
		t.Error("nil observer returned live sinks")
	}
	o.Count("c", 1)
	o.SetGauge("g", 1)
	o.ObserveMs("h", time.Second)
	o.Observe("h2", RatioBuckets, 0.5)
	if sp := o.Start("root"); sp != nil {
		t.Error("nil observer started a span")
	}

	var s *Span
	s.SetAttr(String("k", "v"))
	s.Event("e")
	s.SetError(context.Canceled)
	s.End()
	if c := s.Child("child"); c != nil {
		t.Error("nil span produced a child")
	}

	var tr *Tracer
	if tr.Spans() != nil || tr.Len() != 0 {
		t.Error("nil tracer holds spans")
	}

	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Set(1)
	r.Gauge("g").Add(1)
	r.Histogram("h", DefaultDurationBuckets).Observe(1)
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Error("nil registry snapshot non-empty")
	}

	ctx, sp := StartSpan(context.Background(), nil, "x")
	if sp != nil || FromContext(ctx) != nil {
		t.Error("disabled StartSpan leaked a span")
	}
	if Tracing(context.Background(), nil) {
		t.Error("Tracing true with no observer and no context span")
	}
}

// TestDisabledSpanZeroAlloc pins the disabled fast path: the exact guarded
// instrumentation pattern the flow/core/ml layers use must not allocate
// when no observer is installed.
func TestDisabledSpanZeroAlloc(t *testing.T) {
	ctx := context.Background()
	var o *Observer
	allocs := testing.AllocsPerRun(1000, func() {
		if Tracing(ctx, o) {
			_, sp := StartSpan(ctx, o, "flow", String("design", "d"), Int("seed", 1))
			sp.End()
		}
		o.Count(MetricFlowRuns, 1)
		o.ObserveMs(MetricFlowMs, time.Millisecond)
		o.SetGauge(MetricGridCandidatesPerSec, 1)
		var sp *Span
		sp.Child("stage").End()
		sp.Event("evt")
		sp.SetError(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled observation allocated %.1f times per op, want 0", allocs)
	}
}

func TestSpanHierarchy(t *testing.T) {
	o := New()
	root := o.Start("flow", String("design", "d"))
	child := root.Child("place")
	child.SetAttr(Int("moves", 3000))
	child.Event("checkpoint", Float("temp", 0.5))
	child.End()
	child.End() // idempotent
	root.End()

	spans := o.Trace.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: child first.
	c, r := spans[0], spans[1]
	if c.Name != "place" || r.Name != "flow" {
		t.Fatalf("unexpected span order: %q, %q", c.Name, r.Name)
	}
	if c.ParentID != r.ID || c.RootID != r.ID || r.ParentID != 0 || r.RootID != r.ID {
		t.Errorf("bad hierarchy: child{id=%d parent=%d root=%d} root{id=%d parent=%d root=%d}",
			c.ID, c.ParentID, c.RootID, r.ID, r.ParentID, r.RootID)
	}
	if len(c.Events) != 1 || c.Events[0].Name != "checkpoint" {
		t.Errorf("child events = %+v", c.Events)
	}
	if c.End < c.Start || r.End < r.Start {
		t.Error("span ends before it starts")
	}
}

// TestContextPropagation checks that a context-carried parent records
// children even when the local observer is nil — how nested layers (retry
// inside build inside experiment) compose without passing observers down.
func TestContextPropagation(t *testing.T) {
	o := New()
	ctx, root := StartSpan(context.Background(), o, "outer")
	if !Tracing(ctx, nil) {
		t.Fatal("context span not detected")
	}
	_, inner := StartSpan(ctx, nil, "inner") // nil observer, parent from ctx
	inner.End()
	root.End()
	spans := o.Trace.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "inner" || spans[0].ParentID != spans[1].ID {
		t.Errorf("inner span not parented on outer: %+v", spans[0])
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histogram("lat")
	if snap == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if snap.Count != 5 || snap.Sum != 560.5 {
		t.Errorf("count=%d sum=%g, want 5, 560.5", snap.Count, snap.Sum)
	}
	if snap.Min != 0.5 || snap.Max != 500 {
		t.Errorf("min=%g max=%g, want 0.5, 500", snap.Min, snap.Max)
	}
	if got, want := snap.Mean, 560.5/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean=%g, want %g", got, want)
	}
	wantBuckets := []int64{1, 2, 1, 1} // (<=1, <=10, <=100, +Inf)
	if len(snap.Buckets) != len(wantBuckets) {
		t.Fatalf("got %d buckets, want %d", len(snap.Buckets), len(wantBuckets))
	}
	for i, want := range wantBuckets {
		if snap.Buckets[i].Count != want {
			t.Errorf("bucket %d count=%d, want %d", i, snap.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(snap.Buckets[len(snap.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket bound is not +Inf")
	}
}

// TestRegistryConcurrency hammers one registry from the same worker pool
// the dataset builder uses; run under -race this doubles as the data-race
// proof, and the totals prove no increment was lost.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	err := parallel.ForEach(context.Background(), workers, workers, func(_ context.Context, w int) {
		for i := 0; i < perWorker; i++ {
			r.Counter("ops").Add(1)
			r.Gauge("last").Set(float64(w))
			r.Gauge("level").Add(1)
			r.Histogram("ms", DefaultDurationBuckets).Observe(float64(i % 100))
			r.Gauge("level").Add(-1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if v, _ := snap.Counter("ops"); v != workers*perWorker {
		t.Errorf("counter=%d, want %d", v, workers*perWorker)
	}
	if h := snap.Histogram("ms"); h == nil || h.Count != workers*perWorker {
		t.Errorf("histogram count wrong: %+v", h)
	}
	if v, _ := snap.Gauge("level"); v != 0 {
		t.Errorf("balanced gauge Adds left %v, want 0", v)
	}
}

// TestTracerConcurrency starts and ends spans from many goroutines; -race
// validates the locking, the count validates nothing is dropped.
func TestTracerConcurrency(t *testing.T) {
	o := New()
	const workers, spansPer = 8, 200
	err := parallel.ForEach(context.Background(), workers, workers, func(_ context.Context, w int) {
		for i := 0; i < spansPer; i++ {
			sp := o.Start("work", Int("worker", int64(w)))
			sp.Child("inner").End()
			sp.End()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.Trace.Len(), workers*spansPer*2; got != want {
		t.Errorf("recorded %d spans, want %d", got, want)
	}
}

func TestParseLevel(t *testing.T) {
	for _, s := range []string{"debug", "info", "warn", "error"} {
		if _, err := ParseLevel(s); err != nil {
			t.Errorf("ParseLevel(%q): %v", s, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("bad level accepted")
	}
}

// TestNewLoggerFiltersBelowLevel: a logger built at a parsed level drops
// records below it and keeps the rest.
func TestNewLoggerFiltersBelowLevel(t *testing.T) {
	lv, err := ParseLevel("warn")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	log := NewLogger(&buf, lv)
	log.Info("hidden")
	log.Warn("visible", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "visible") {
		t.Errorf("level filtering wrong:\n%s", out)
	}
}
