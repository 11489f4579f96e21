package main

import (
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own code, around its
// calls into each layer's public functions; nothing inside the program is
// instrumented. One recorder holds the spans of one operation (a query, a
// build phase, a fit). Span names are the per-layer metric names, so the
// aggregation below needs no mapping table.

// span is one recorded layer call. parent indexes the same recorder; the
// root span of an operation has parent -1.
type span struct {
	name       string
	start, end time.Time
	parent     int
}

// recorder keeps an operation's spans in memory. Its methods are safe for
// concurrent use, because the train replay runs flow cells on a worker pool.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// otherSpan names the root of every operation: its self time is the glue
// the benchmark replays between layer calls (slice set-up, label
// averaging, result assembly).
const otherSpan = "trace.other_ms"

// newRecorder starts an operation; its root span is index 0.
func newRecorder() *recorder {
	r := &recorder{}
	r.begin(otherSpan, -1)
	return r
}

func (r *recorder) begin(name string, parent int) int {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	now := time.Now()
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// do runs f inside a span named name, a child of the operation's root.
func (r *recorder) do(name string, f func()) {
	i := r.begin(name, 0)
	f()
	r.end(i)
}

// finish closes the root span and returns the operation's wall time.
func (r *recorder) finish() time.Duration {
	r.end(0)
	return r.spans[0].end.Sub(r.spans[0].start)
}

// attribute charges the operation's wall time to layers and adds the
// result, in milliseconds, to into. A span's self time is its duration
// minus that of its direct children, floored at zero. When children ran
// concurrently (the flow cells of a build) the self times add up to more
// than the wall time, so all of them are scaled by wall/sum; for
// sequential calls the scale is 1. Either way the charged times add up to
// the root's wall time.
func (r *recorder) attribute(into map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end.Sub(s.start)
		if s.parent >= 0 {
			self[s.parent] -= s.end.Sub(s.start)
		}
	}
	var sum time.Duration
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
		sum += self[i]
	}
	if sum <= 0 {
		return
	}
	wall := r.spans[0].end.Sub(r.spans[0].start)
	scale := float64(wall) / float64(sum)
	for i, s := range r.spans {
		into[s.name] += ms(self[i]) * scale
	}
}
