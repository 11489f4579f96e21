package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// BreachRule is one threshold a BreachWatcher checks against every
// recorder sample. Exactly one of the two thresholds should be set:
//
//   - P99Above fires when the metric's histogram window p99 exceeds the
//     threshold (ignoring empty windows) — "p99 spiked past 5ms".
//   - DeltaAtLeast fires when the metric's counter grew by at least that
//     much within one window — "a reload was rejected".
type BreachRule struct {
	Metric       string
	P99Above     float64
	DeltaAtLeast int64
}

// BreachOptions configures a BreachWatcher.
type BreachOptions struct {
	// Dir receives one subdirectory per capture (required).
	Dir string
	// MinInterval rate-limits captures: breaches within MinInterval of
	// the last capture are counted but not captured (default 1m).
	MinInterval time.Duration
	// CPUProfile is how long the CPU profiler runs per capture (default
	// 250ms; negative disables the CPU profile, heap-only).
	CPUProfile time.Duration
	// Now injects a clock for tests (default time.Now).
	Now func() time.Time
	// Log receives one record per capture and per suppressed breach.
	Log *slog.Logger
}

// BreachReason is the reason.json document written with every capture:
// which rule fired, on what observed value, at which sample.
type BreachReason struct {
	Metric    string  `json:"metric"`
	Kind      string  `json:"kind"` // "p99" or "delta"
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	SampleSeq int64   `json:"sample_seq"`
	UnixMs    int64   `json:"t_ms"`
}

// BreachWatcher turns "the p99 spiked at 14:32" into an artifact: hooked
// into a Recorder, it checks each sample against its rules and on breach
// writes a capture directory — cpu.pprof, heap.pprof, the metrics-history
// window (history.json) and reason.json — into the artifact store dir.
// Captures are rate-limited (MinInterval) so a sustained breach produces
// one profile per interval, not one per sample; suppressed breaches are
// still counted. Capture runs synchronously inside the sampling tick —
// sampling pauses for the CPU-profile window, which is fine at one
// capture a minute, and means a manual Sample() call returns with the
// capture on disk (check.sh relies on that).
type BreachWatcher struct {
	rules []BreachRule
	opts  BreachOptions

	mu          sync.Mutex
	lastCapture time.Time
	hasCapture  bool
	breaches    int64
	captures    int64
}

// NewBreachWatcher attaches a watcher to rec. Returns nil (a safe no-op)
// when rec is nil, no rules are given, or Dir is empty.
func NewBreachWatcher(rec *Recorder, rules []BreachRule, opts BreachOptions) *BreachWatcher {
	if rec == nil || len(rules) == 0 || opts.Dir == "" {
		return nil
	}
	if opts.MinInterval <= 0 {
		opts.MinInterval = time.Minute
	}
	if opts.CPUProfile == 0 {
		opts.CPUProfile = 250 * time.Millisecond
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	w := &BreachWatcher{rules: rules, opts: opts}
	rec.OnSample(func(s RecorderSample) { w.check(rec, s) })
	return w
}

// Breaches returns how many rule breaches have been seen (captured or
// suppressed); Captures how many produced a directory. Nil-safe.
func (w *BreachWatcher) Breaches() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.breaches
}

func (w *BreachWatcher) Captures() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.captures
}

// check evaluates the rules against one sample and captures on the first
// breach found.
func (w *BreachWatcher) check(rec *Recorder, s RecorderSample) {
	reason, ok := w.breached(s)
	if !ok {
		return
	}
	now := w.opts.Now()
	w.mu.Lock()
	w.breaches++
	if w.hasCapture && now.Sub(w.lastCapture) < w.opts.MinInterval {
		w.mu.Unlock()
		if l := w.opts.Log; l != nil {
			l.Debug("breach suppressed by rate limit", "metric", reason.Metric, "value", reason.Value)
		}
		return
	}
	w.lastCapture = now
	w.hasCapture = true
	w.captures++
	seq := w.captures
	w.mu.Unlock()

	dir := filepath.Join(w.opts.Dir, fmt.Sprintf("breach-%03d-%s", seq, promName(reason.Metric)))
	if err := w.capture(rec, dir, reason); err != nil {
		if l := w.opts.Log; l != nil {
			l.Warn("breach capture failed", "dir", dir, "err", err)
		}
		return
	}
	if l := w.opts.Log; l != nil {
		l.Warn("breach captured", "metric", reason.Metric, "kind", reason.Kind,
			"value", reason.Value, "threshold", reason.Threshold, "dir", dir)
	}
}

// breached returns the first rule the sample violates.
func (w *BreachWatcher) breached(s RecorderSample) (BreachReason, bool) {
	for _, rule := range w.rules {
		if rule.P99Above > 0 {
			for _, h := range s.Hists {
				if h.Name == rule.Metric && h.Count > 0 && h.P99 > rule.P99Above {
					return BreachReason{
						Metric: rule.Metric, Kind: "p99",
						Value: h.P99, Threshold: rule.P99Above,
						SampleSeq: s.Seq, UnixMs: s.UnixMs,
					}, true
				}
			}
		}
		if rule.DeltaAtLeast > 0 {
			for _, c := range s.Counters {
				if c.Name == rule.Metric && c.Delta >= rule.DeltaAtLeast {
					return BreachReason{
						Metric: rule.Metric, Kind: "delta",
						Value: float64(c.Delta), Threshold: float64(rule.DeltaAtLeast),
						SampleSeq: s.Seq, UnixMs: s.UnixMs,
					}, true
				}
			}
		}
	}
	return BreachReason{}, false
}

// capture writes one breach directory. Partial failures degrade rather
// than abort: a CPU profiler already claimed by the process (hlscong
// -cpuprofile) skips cpu.pprof but still writes the heap profile, history
// and reason.
func (w *BreachWatcher) capture(rec *Recorder, dir string, reason BreachReason) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if data, err := json.MarshalIndent(reason, "", "  "); err == nil {
		os.WriteFile(filepath.Join(dir, "reason.json"), append(data, '\n'), 0o644)
	}
	if f, err := os.Create(filepath.Join(dir, "history.json")); err == nil {
		rec.WriteHistoryJSON(f)
		f.Close()
	}
	if w.opts.CPUProfile > 0 {
		if f, err := os.Create(filepath.Join(dir, "cpu.pprof")); err == nil {
			if err := pprof.StartCPUProfile(f); err == nil {
				time.Sleep(w.opts.CPUProfile)
				pprof.StopCPUProfile()
			} else if l := w.opts.Log; l != nil {
				l.Debug("cpu profile unavailable", "err", err)
			}
			f.Close()
		}
	}
	f, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.WriteHeapProfile(f)
}
