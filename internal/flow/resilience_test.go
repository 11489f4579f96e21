package flow

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fpga"
)

func TestStageErrorWrapsCause(t *testing.T) {
	cause := errors.New("boom")
	err := stageErr(StageRoute, "d", 7, cause)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("not a StageError: %v", err)
	}
	if se.Stage != StageRoute || se.Design != "d" || se.Seed != 7 {
		t.Fatalf("bad fields: %+v", se)
	}
	if !errors.Is(err, cause) {
		t.Fatal("cause not reachable via errors.Is")
	}
	// Re-wrapping an existing StageError must not nest a second layer.
	if again := stageErr(StagePlace, "x", 1, err); again != err {
		t.Fatalf("double-wrapped: %v", again)
	}
}

func TestRunContextFaultInjectionPerStage(t *testing.T) {
	m := smallModule()
	for _, stage := range Stages {
		cause := errors.New("injected " + stage)
		cfg := quickConfig()
		cfg.Faults = faults.Script{{Stage: stage, Attempt: 0}: cause}
		_, err := Run(m, cfg)
		var se *StageError
		if !errors.As(err, &se) {
			t.Fatalf("%s: not a StageError: %v", stage, err)
		}
		if se.Stage != stage || se.Design != m.Name || !errors.Is(err, cause) {
			t.Fatalf("%s: wrong stage error: %+v", stage, se)
		}
	}
}

// TestRetrySucceedsWithRerolledSeed is acceptance criterion (a): injected
// router non-convergence on attempt 1 is retried under DefaultRetryPolicy and
// succeeds on attempt 2 with a re-rolled seed.
func TestRetrySucceedsWithRerolledSeed(t *testing.T) {
	cfg := quickConfig()
	cfg.Faults = faults.FailFirst(StageRoute, 1, ErrUnroutable)
	policy := DefaultRetryPolicy()
	res, err := RunWithRetry(context.Background(), smallModule(), cfg, policy)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if res.Config.Attempt != 1 {
		t.Fatalf("succeeded on attempt %d, want 1", res.Config.Attempt)
	}
	if got, want := res.Config.Seed, cfg.Seed+policy.SeedStride; got != want || got == cfg.Seed {
		t.Fatalf("seed not re-rolled: got %d want %d", got, want)
	}
	if got, want := res.Config.Route.Iterations, cfg.Route.Iterations+policy.RouteIterStep; got != want {
		t.Fatalf("router iterations not escalated: got %d want %d", got, want)
	}
	if res.Config.Route.OverflowPenalty >= cfg.Route.OverflowPenalty {
		t.Fatalf("overflow penalty not relaxed: %v >= %v",
			res.Config.Route.OverflowPenalty, cfg.Route.OverflowPenalty)
	}
}

func TestRetryExhaustionKeepsTypedError(t *testing.T) {
	cfg := quickConfig()
	cfg.Faults = faults.FailFirst(StageRoute, 99, ErrUnroutable)
	_, err := RunWithRetry(context.Background(), smallModule(), cfg, RetryPolicy{MaxAttempts: 3, SeedStride: 1})
	if !errors.Is(err, ErrUnroutable) {
		t.Fatalf("exhausted retries lost sentinel: %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageRoute {
		t.Fatalf("exhausted retries lost stage context: %v", err)
	}
}

func TestRetryRespectsRetryableFilter(t *testing.T) {
	cfg := quickConfig()
	cfg.Faults = faults.FailFirst(StageSchedule, 99, errors.New("fatal"))
	calls := 0
	policy := RetryPolicy{MaxAttempts: 5, Retryable: func(error) bool { calls++; return false }}
	_, err := RunWithRetry(context.Background(), smallModule(), cfg, policy)
	if err == nil || calls != 1 {
		t.Fatalf("non-retryable error was retried (%d filter calls): %v", calls, err)
	}
}

// TestCancelledContextStopsRun is acceptance criterion (c): a cancelled
// context stops RunContext and returns context.Canceled.
func TestCancelledContextStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, smallModule(), quickConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("cancellation not wrapped in StageError: %v", err)
	}
}

// cancelOnStage cancels the run's context the moment a stage is entered,
// proving the *next* loop (placer sweeps, router iterations) observes the
// cancellation mid-stage rather than at the following stage boundary.
type cancelOnStage struct {
	stage  string
	cancel context.CancelFunc
}

func (c cancelOnStage) Check(design, stage string, attempt int) error {
	if stage == c.stage {
		c.cancel()
	}
	return nil
}

func TestCancellationInsidePlacerAndRouter(t *testing.T) {
	for _, stage := range []string{StagePlace, StageRoute} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := quickConfig()
		cfg.Faults = cancelOnStage{stage: stage, cancel: cancel}
		_, err := RunContext(ctx, smallModule(), cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel inside %s: got %v, want context.Canceled", stage, err)
		}
		var se *StageError
		if !errors.As(err, &se) || se.Stage != stage {
			t.Fatalf("cancel inside %s: stage context lost: %v", stage, err)
		}
	}
}

func TestDeadlineMatchesBothSentinels(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := RunContext(ctx, smallModule(), quickConfig())
	if !errors.Is(err, ErrTimedOut) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error %v must match ErrTimedOut and DeadlineExceeded", err)
	}
}

func TestCancellationNeverRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunWithRetry(ctx, smallModule(), quickConfig(), RetryPolicy{MaxAttempts: 5, SeedStride: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err != nil && errors.Is(err, ErrUnroutable) {
		t.Fatal("cancellation misclassified")
	}
}

func TestPlacementOverflowSentinel(t *testing.T) {
	cfg := quickConfig()
	tiny := *fpga.XC7Z020()
	tiny.Cols, tiny.Rows = 1, 1
	tiny.DSPCols, tiny.BRAMCols = nil, nil
	cfg.Dev = &tiny
	_, err := Run(smallModule(), cfg)
	if !errors.Is(err, ErrPlacementOverflow) {
		t.Fatalf("got %v, want ErrPlacementOverflow", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StagePlace {
		t.Fatalf("stage context lost: %v", err)
	}
}

func TestConvergenceStatusDegradation(t *testing.T) {
	cfg := quickConfig()
	starved := *fpga.XC7Z020()
	starved.VCap, starved.HCap = 0.25, 0.25
	cfg.Dev = &starved
	res, err := Run(smallModule(), cfg)
	if err != nil {
		t.Fatalf("starved routing must degrade, not fail: %v", err)
	}
	c := res.Convergence
	if c.Converged || c.OverusedEdges == 0 {
		t.Fatalf("starved channels reported converged: %+v", c)
	}
	if c.OverusedEdges != res.Routing.Overflow || c.Iterations != res.Routing.Iterations {
		t.Fatalf("convergence status disagrees with router: %+v vs overflow=%d iters=%d",
			c, res.Routing.Overflow, res.Routing.Iterations)
	}

	cfg.StrictConvergence = true
	_, err = Run(smallModule(), cfg)
	if !errors.Is(err, ErrUnroutable) {
		t.Fatalf("strict mode: got %v, want ErrUnroutable", err)
	}
}

func TestConvergedRunReportsCleanStatus(t *testing.T) {
	res, err := Run(smallModule(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Convergence
	if c.Iterations != res.Routing.Iterations || c.OverusedEdges != res.Routing.Overflow {
		t.Fatalf("status mismatch: %+v", c)
	}
	if c.Converged != (res.Routing.Overflow == 0) || c.Converged != res.Routing.Converged() {
		t.Fatalf("converged flag inconsistent: %+v overflow=%d", c, res.Routing.Overflow)
	}
}

func TestRunContextNilModule(t *testing.T) {
	if _, err := RunContext(context.Background(), nil, quickConfig()); err == nil {
		t.Fatal("nil module accepted")
	}
}
