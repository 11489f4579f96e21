package obs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A latency breach writes one capture directory with the profile set, and
// the rate limit keeps a sustained breach at one capture per interval.
func TestBreachCaptureAndRateLimit(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	clk := newTestClock()
	rec := NewRecorder(reg, RecorderOptions{Now: clk.now})
	w := NewBreachWatcher(rec, []BreachRule{{Metric: "serve.latency_us", P99Above: 100}},
		BreachOptions{Dir: dir, MinInterval: time.Minute, CPUProfile: -1, Now: clk.now})
	if w == nil {
		t.Fatal("watcher construction failed")
	}

	h := reg.Histogram("serve.latency_us", LatencyMicrosBuckets)
	rec.Sample() // baseline

	// Window full of ~800us observations: p99 far past the 100us rule.
	for i := 0; i < 50; i++ {
		h.Observe(700)
	}
	clk.advance(time.Second)
	rec.Sample()
	if w.Captures() != 1 {
		t.Fatalf("captures = %d, want 1", w.Captures())
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("capture dirs = %v (err %v), want 1", ents, err)
	}
	cdir := filepath.Join(dir, ents[0].Name())
	for _, f := range []string{"reason.json", "history.json", "heap.pprof"} {
		if st, err := os.Stat(filepath.Join(cdir, f)); err != nil || st.Size() == 0 {
			t.Errorf("capture missing %s (err %v)", f, err)
		}
	}

	// Still breaching 1s later: suppressed by the rate limit.
	for i := 0; i < 50; i++ {
		h.Observe(700)
	}
	clk.advance(time.Second)
	rec.Sample()
	if w.Captures() != 1 || w.Breaches() != 2 {
		t.Errorf("after suppressed breach: captures %d breaches %d, want 1/2", w.Captures(), w.Breaches())
	}

	// Past the interval the next breach captures again.
	for i := 0; i < 50; i++ {
		h.Observe(700)
	}
	clk.advance(2 * time.Minute)
	rec.Sample()
	if w.Captures() != 2 {
		t.Errorf("captures after interval = %d, want 2", w.Captures())
	}
}

// Counter-delta rules fire on window growth, not on lifetime totals.
func TestBreachCounterDelta(t *testing.T) {
	const errs = "app.errors"
	dir := t.TempDir()
	reg := NewRegistry()
	clk := newTestClock()
	rec := NewRecorder(reg, RecorderOptions{Now: clk.now})
	w := NewBreachWatcher(rec, []BreachRule{{Metric: errs, DeltaAtLeast: 1}},
		BreachOptions{Dir: dir, CPUProfile: -1, Now: clk.now})

	reg.Counter(errs).Add(5) // pre-existing errors
	rec.Sample()             // first sample: delta 0, no breach
	if w.Captures() != 0 {
		t.Fatalf("first sample captured on lifetime total: %d", w.Captures())
	}

	clk.advance(time.Second)
	rec.Sample() // idle window: no breach
	if w.Captures() != 0 {
		t.Fatalf("idle window captured: %d", w.Captures())
	}

	reg.Counter(errs).Inc()
	clk.advance(time.Second)
	rec.Sample()
	if w.Captures() != 1 {
		t.Errorf("captures = %d, want 1 after a new error", w.Captures())
	}
}

// Degenerate construction is a safe no-op.
func TestBreachWatcherNil(t *testing.T) {
	if NewBreachWatcher(nil, []BreachRule{{Metric: "m", P99Above: 1}}, BreachOptions{Dir: "/tmp"}) != nil {
		t.Error("nil recorder must yield nil watcher")
	}
	if NewBreachWatcher(NewRecorder(NewRegistry(), RecorderOptions{}), nil, BreachOptions{Dir: "/tmp"}) != nil {
		t.Error("no rules must yield nil watcher")
	}
	var w *BreachWatcher
	if w.Captures() != 0 || w.Breaches() != 0 {
		t.Error("nil watcher accessors must return 0")
	}
}
