// Package obs is the flow's observability layer: hierarchical spans with
// monotonic timing, a metrics registry with atomic hot paths, and exporters
// for Chrome trace_event JSON, JSON metrics snapshots, slog-structured logs
// and an HTTP debug endpoint. It depends only on the standard library.
//
// The package is built around one invariant: *observation must cost
// (almost) nothing when disabled*. Every entry point is nil-safe — a nil
// *Observer, *Tracer, *Registry or *Span accepts every call as a no-op —
// so instrumented code threads a possibly-nil Observer without guards and
// the disabled fast path is a pointer test (see TestDisabledSpanZeroAlloc
// for the allocation guarantee). The second invariant is that observation never changes
// what it observes: spans and metrics are written on stage boundaries, not
// inside kernels, and nothing in this package feeds back into flow
// decisions, so instrumented runs stay byte-identical to bare ones.
//
// Concurrency: one Observer is shared by every worker of a parallel
// dataset build or grid search. The Tracer serializes span completion
// under a mutex (spans finish at stage granularity, so contention is
// negligible), the Registry's counters, gauges and histogram buckets are
// lock-free atomics after first registration, and loggers are slog's
// (already concurrency-safe).
package obs

import (
	"context"
	"log/slog"
	"time"
)

// Observer bundles the three observation sinks an instrumented layer may
// write to: a span tracer, a metrics registry and a structured logger. Any
// field may be nil to disable that sink; the nil *Observer disables all
// three. Construct with New (all sinks except logging) and assign Log for
// structured logs.
type Observer struct {
	// Trace collects hierarchical spans; nil disables tracing.
	Trace *Tracer
	// Reg accumulates counters, gauges and histograms; nil disables
	// metrics.
	Reg *Registry
	// Log receives structured log records; nil disables logging.
	Log *slog.Logger
	// Rec, when set, is the time-series recorder behind the
	// /debug/metrics/history endpoint; nil serves an empty history. The
	// recorder samples Reg from its own goroutine — nothing on the
	// instrumented path ever touches it.
	Rec *Recorder
}

// New returns an Observer with a fresh Tracer and Registry and no logger.
func New() *Observer {
	return &Observer{Trace: NewTracer(), Reg: NewRegistry()}
}

// Tracing reports whether spans started through this Observer are
// recorded. Nil-safe.
func (o *Observer) Tracing() bool { return o != nil && o.Trace != nil }

// Metrics returns the registry (nil when metrics are disabled). Nil-safe.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Logger returns the structured logger, or nil when logging is disabled.
// Callers must guard: `if l := o.Logger(); l != nil { l.Info(...) }` — the
// guard keeps disabled log sites allocation-free.
func (o *Observer) Logger() *slog.Logger {
	if o == nil {
		return nil
	}
	return o.Log
}

// Start begins a root span. Nil-safe: a nil Observer (or one without a
// Tracer) returns a nil *Span, on which every method no-ops.
func (o *Observer) Start(name string, attrs ...Attr) *Span {
	if o == nil || o.Trace == nil {
		return nil
	}
	return o.Trace.start(nil, name, attrs)
}

// Count adds n to the named counter. Nil-safe.
func (o *Observer) Count(name string, n int64) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Reg.Counter(name).Add(n)
}

// SetGauge sets the named gauge. Nil-safe.
func (o *Observer) SetGauge(name string, v float64) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Reg.Gauge(name).Set(v)
}

// ObserveMs records a duration, in milliseconds, into the named histogram
// (DefaultDurationBuckets). Nil-safe.
func (o *Observer) ObserveMs(name string, d time.Duration) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Reg.Histogram(name, DefaultDurationBuckets).Observe(float64(d) / float64(time.Millisecond))
}

// Observe records a value into the named histogram with the given bucket
// bounds (used on first registration only). Nil-safe.
func (o *Observer) Observe(name string, bounds []float64, v float64) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Reg.Histogram(name, bounds).Observe(v)
}

// ctxKey keys the active span in a context.
type ctxKey struct{}

// ContextWith returns ctx with s installed as the active span. A nil span
// returns ctx unchanged.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span of ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Tracing reports whether a span started under (ctx, o) would be recorded
// — either the Observer traces or the context already carries a parent
// span. Instrumented code uses it to guard attribute construction so the
// disabled path allocates nothing.
func Tracing(ctx context.Context, o *Observer) bool {
	return o.Tracing() || FromContext(ctx) != nil
}

// StartSpan begins a span parented on the context's active span when one
// is present (a root span otherwise), and returns ctx with the new span
// active. When neither the Observer nor the context can record it, the
// original ctx and a nil span come back — so callers may use the returned
// pair unconditionally.
func StartSpan(ctx context.Context, o *Observer, name string, attrs ...Attr) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		s := parent.tracer.start(parent, name, attrs)
		return ContextWith(ctx, s), s
	}
	if o == nil || o.Trace == nil {
		return ctx, nil
	}
	s := o.Trace.start(nil, name, attrs)
	return ContextWith(ctx, s), s
}
