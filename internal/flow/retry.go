package flow

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/obs"
)

// RetryPolicy governs how a failed flow run is retried. Each retry
// escalates: the placement seed is re-rolled (SeedStride) so a stochastic
// placer failure does not repeat, the router gets extra negotiation
// iterations (RouteIterStep) and a softened overflow penalty
// (CapacityRelax) so hard-to-route designs trade congestion quality for
// completion. The zero value retries nothing; start from
// DefaultRetryPolicy.
//
// One RetryPolicy value may drive many concurrent RunWithRetry calls (the
// parallel dataset builder hands the same policy to every worker): the
// policy is never mutated — escalation derives a fresh Config per attempt
// — and each attempt's backoff uses its own timer. Retryable, when set,
// must therefore be safe for concurrent use, as must any fault injector
// installed in Config.Faults (see faults.Injector).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 mean a single attempt.
	MaxAttempts int
	// SeedStride is added to Config.Seed on every retry, re-rolling the
	// stochastic placement. Zero keeps the seed fixed.
	SeedStride int64
	// RouteIterStep adds this many router iterations per retry, giving
	// the negotiation more room to resolve overuse.
	RouteIterStep int
	// CapacityRelax softens the router's overflow penalty per retry:
	// attempt k scales Route.OverflowPenalty by 1/(1 + CapacityRelax*k),
	// accepting more congestion in exchange for convergence.
	CapacityRelax float64
	// Backoff is the wait between attempts — pointless for the in-process
	// flow, but the hook future remote implementation backends need. The
	// wait respects context cancellation.
	Backoff time.Duration
	// Retryable optionally filters which errors are retried; nil retries
	// every failure except context cancellation, which always aborts.
	Retryable func(error) bool
}

// DefaultRetryPolicy is the escalation used by dataset builds: three
// attempts, a large prime seed stride, two extra router iterations and a
// 30 % overflow-penalty relax per retry.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:   3,
		SeedStride:    104729,
		RouteIterStep: 2,
		CapacityRelax: 0.3,
	}
}

// Attempts normalizes MaxAttempts: the total attempt count RunWithRetry
// will make, never below one.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Escalate derives the config for a given zero-based attempt. It is
// exported so a caller that replays a build's flow runs (perfbench's
// train workload) reproduces the exact escalation RunWithRetry performs.
func (p RetryPolicy) Escalate(cfg Config, attempt int) Config {
	cfg.Attempt = attempt
	if attempt == 0 {
		return cfg
	}
	cfg.Seed += int64(attempt) * p.SeedStride
	cfg.Route.Iterations += attempt * p.RouteIterStep
	if p.CapacityRelax > 0 {
		cfg.Route.OverflowPenalty /= 1 + p.CapacityRelax*float64(attempt)
	}
	return cfg
}

// RunWithRetry executes the flow under the policy, escalating on each
// failed attempt. It returns the first successful Result; after the last
// attempt it returns the final StageError, annotated with the attempt
// count. Context cancellation aborts immediately and is never retried.
func RunWithRetry(ctx context.Context, m *ir.Module, cfg Config, p RetryPolicy) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := cfg.Obs
	n := p.Attempts()
	// One "flow.attempts" span wraps the whole escalation when retrying is
	// possible, so each attempt's "flow" span nests under it and failed
	// attempts show up as events on the wrapper.
	var sp *obs.Span
	if n > 1 && obs.Tracing(ctx, o) {
		design := "<nil>"
		if m != nil {
			design = m.Name
		}
		ctx, sp = obs.StartSpan(ctx, o, "flow.attempts",
			obs.String("design", design), obs.Int("max_attempts", int64(n)))
	}
	defer sp.End()
	var last error
	for attempt := 0; attempt < n; attempt++ {
		if attempt > 0 && p.Backoff > 0 {
			if err := sleepCtx(ctx, p.Backoff); err != nil {
				return nil, err
			}
		}
		res, err := RunContext(ctx, m, p.Escalate(cfg, attempt))
		if err == nil {
			if attempt > 0 {
				sp.SetAttr(obs.Int("succeeded_on_attempt", int64(attempt)))
			}
			return res, nil
		}
		last = err
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if p.Retryable != nil && !p.Retryable(err) {
			return nil, err
		}
		if attempt+1 < n {
			// This failure will be retried: record the escalation.
			sp.Event("attempt.failed", obs.Int("attempt", int64(attempt)), obs.String("error", err.Error()))
			o.Count(obs.MetricFlowRetries, 1)
			if l := o.Logger(); l != nil {
				l.Warn("flow attempt failed, retrying", "attempt", attempt, "error", err)
			}
		}
	}
	if n > 1 {
		last = fmt.Errorf("flow: %d attempts exhausted: %w", n, last)
	}
	return nil, last
}

// sleepCtx waits d or until the context is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctxErr(ctx)
	case <-t.C:
		return nil
	}
}
