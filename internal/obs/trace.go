package obs

import (
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or event. Values are limited
// to what the exporters serialize losslessly: string, int64, float64, bool.
type Attr struct {
	Key   string
	Value any
}

// String returns a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float returns a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool returns a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// EventData is one instantaneous occurrence inside a span — a retry
// attempt, an injected fault, a cache hit — stamped relative to the trace
// epoch.
type EventData struct {
	Name  string
	At    time.Duration // offset from the trace epoch
	Attrs []Attr
}

// SpanData is one finished span as the exporters see it. Times are offsets
// from the trace epoch, derived from the tracer's monotonic clock.
type SpanData struct {
	ID       int64
	ParentID int64 // 0 for root spans
	RootID   int64 // track grouping: the top-level ancestor's ID
	Name     string
	Start    time.Duration
	End      time.Duration
	Attrs    []Attr
	Events   []EventData
}

// Span is one in-flight operation. Spans form a hierarchy via Child and
// ContextWith/StartSpan; they are recorded when End is called. All methods
// are nil-safe no-ops, so instrumented code never guards.
//
// A span's own mutations (SetAttr, Event, End) must come from one
// goroutine — the one running the operation — but *different* spans of the
// same Tracer are safely started, mutated and ended concurrently, which is
// how parallel dataset builds and grid searches trace their workers.
type Span struct {
	tracer *Tracer
	data   SpanData
	ended  bool
}

// Child begins a sub-span. Nil-safe: a nil receiver returns nil.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(s, name, attrs)
}

// SetAttr appends annotations to the span. Nil-safe.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, attrs...)
}

// Event records an instantaneous occurrence inside the span. Nil-safe.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.data.Events = append(s.data.Events, EventData{
		Name:  name,
		At:    s.tracer.since(),
		Attrs: attrs,
	})
}

// SetError annotates the span with a failure cause. Nil-safe (on both
// sides: a nil error is ignored).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, String("error", err.Error()))
}

// End finishes the span and hands it to the tracer. Safe to call more than
// once (later calls no-op) and nil-safe.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.data.End = s.tracer.since()
	s.tracer.finish(s.data)
}

// Tracer collects finished spans, concurrency-safe. Timing is monotonic:
// every timestamp is an offset from the trace epoch (the instant of the
// first clock reading), so wall-clock jumps never corrupt durations and
// exports are deterministic under an injected test clock.
type Tracer struct {
	mu       sync.Mutex
	clock    func() time.Time
	epoch    time.Time
	epochSet bool
	nextID   int64
	spans    []SpanData
}

// NewTracer returns a tracer reading time.Now.
func NewTracer() *Tracer {
	return &Tracer{clock: time.Now}
}

// SetClock replaces the time source and re-arms the epoch to the next
// reading — the hook the golden-file export tests use to produce
// deterministic traces. Call it before any span starts.
func (t *Tracer) SetClock(clock func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = clock
	t.epochSet = false
}

// since returns the current offset from the trace epoch, arming the epoch
// on first use.
func (t *Tracer) since() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	if !t.epochSet {
		t.epoch = now
		t.epochSet = true
	}
	return now.Sub(t.epoch)
}

// start begins a span under parent (nil for a root).
func (t *Tracer) start(parent *Span, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	at := t.since()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &Span{tracer: t, data: SpanData{ID: id, RootID: id, Name: name, Start: at, Attrs: attrs}}
	if parent != nil {
		s.data.ParentID = parent.data.ID
		s.data.RootID = parent.data.RootID
	}
	return s
}

// finish records one completed span.
func (t *Tracer) finish(d SpanData) {
	t.mu.Lock()
	t.spans = append(t.spans, d)
	t.mu.Unlock()
}

// Spans returns a snapshot of every finished span, in completion order.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
