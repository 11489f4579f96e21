package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// testClock is a hand-advanced clock for deterministic windows.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func sampleCounter(t *testing.T, s RecorderSample, name string) CounterRate {
	t.Helper()
	for _, c := range s.Counters {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("counter %q not in sample", name)
	return CounterRate{}
}

func sampleHist(t *testing.T, s RecorderSample, name string) HistWindow {
	t.Helper()
	for _, h := range s.Hists {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("hist %q not in sample", name)
	return HistWindow{}
}

// First sample: totals are present but deltas, rates and windows must all
// be zero — there is no previous sample to rate against.
func TestRecorderFirstSampleRates(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(100)
	reg.Histogram("h", []float64{1, 10, 100}).Observe(5)
	clk := newTestClock()
	rec := NewRecorder(reg, RecorderOptions{Now: clk.now})

	s := rec.Sample()
	if s.WindowMs != 0 {
		t.Errorf("first sample window = %dms, want 0", s.WindowMs)
	}
	c := sampleCounter(t, s, "c")
	if c.Total != 100 || c.Delta != 0 || c.PerSec != 0 {
		t.Errorf("first sample counter = %+v, want total 100, delta 0, rate 0", c)
	}
	h := sampleHist(t, s, "h")
	if h.Total != 1 || h.Count != 0 || h.P99 != 0 {
		t.Errorf("first sample hist = %+v, want total 1 and zero window", h)
	}
}

// Steady increments produce the right deltas and per-second rates.
func TestRecorderRates(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	rec := NewRecorder(reg, RecorderOptions{Now: clk.now})
	reg.Counter("c").Add(10)
	rec.Sample()

	reg.Counter("c").Add(30)
	clk.advance(2 * time.Second)
	s := rec.Sample()
	c := sampleCounter(t, s, "c")
	if c.Total != 40 || c.Delta != 30 || c.PerSec != 15 {
		t.Errorf("counter = %+v, want total 40, delta 30, 15/s", c)
	}
}

// A counter that shrinks between samples (process restart or reload behind
// the same endpoint) is a reset: the delta is the new total, never
// negative.
func TestRecorderCounterReset(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	rec := NewRecorder(reg, RecorderOptions{Now: clk.now})
	reg.Counter("c").Add(100)
	rec.Sample()

	// Simulate the reset by recording a fresh registry under the recorder's
	// nose: swap is not possible, so drive counterDelta directly too.
	if d := counterDelta(100, 7); d != 7 {
		t.Errorf("counterDelta(100, 7) = %d, want 7 (reset rule)", d)
	}
	if d := counterDelta(5, 5); d != 0 {
		t.Errorf("counterDelta(5, 5) = %d, want 0", d)
	}

	// Histogram reset: a smaller current count re-bases on the current
	// totals.
	prev := &HistogramSnap{Name: "h", Count: 50, Sum: 500,
		Buckets: []BucketSnap{{UpperBound: 1, Count: 50}, {UpperBound: math.Inf(1), Count: 0}}}
	cur := &HistogramSnap{Name: "h", Count: 3, Sum: 2.4,
		Buckets: []BucketSnap{{UpperBound: 1, Count: 3}, {UpperBound: math.Inf(1), Count: 0}}}
	hw := histogramWindow(prev, cur)
	if hw.Count != 3 || hw.Sum != 2.4 {
		t.Errorf("reset window = %+v, want the current totals (count 3, sum 2.4)", hw)
	}
}

// An idle histogram yields an empty window: zero count, no quantiles, no
// buckets.
func TestRecorderEmptyWindow(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	rec := NewRecorder(reg, RecorderOptions{Now: clk.now})
	reg.Histogram("h", []float64{1, 10}).Observe(5)
	rec.Sample()

	clk.advance(time.Second)
	s := rec.Sample()
	h := sampleHist(t, s, "h")
	if h.Count != 0 || h.Sum != 0 || h.P50 != 0 || h.P99 != 0 || h.Buckets != nil {
		t.Errorf("idle window = %+v, want all-zero with no buckets", h)
	}
	if h.Total != 1 {
		t.Errorf("idle window total = %d, want lifetime 1", h.Total)
	}
}

// Histogram windows carry only the window's observations, with quantiles
// from the delta buckets.
func TestRecorderHistogramWindow(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	rec := NewRecorder(reg, RecorderOptions{Now: clk.now})
	h := reg.Histogram("h", []float64{10, 20, 40})
	h.Observe(5) // before the window: must not show in the delta
	rec.Sample()

	for i := 0; i < 100; i++ {
		h.Observe(15) // all in (10, 20]
	}
	clk.advance(time.Second)
	s := rec.Sample()
	hw := sampleHist(t, s, "h")
	if hw.Count != 100 {
		t.Fatalf("window count = %d, want 100", hw.Count)
	}
	if hw.P50 <= 10 || hw.P50 > 20 || hw.P99 <= 10 || hw.P99 > 20 {
		t.Errorf("window p50/p99 = %v/%v, want within (10, 20]", hw.P50, hw.P99)
	}
	if hw.Total != 101 {
		t.Errorf("window lifetime total = %d, want 101", hw.Total)
	}
}

// The ring overwrites oldest-first once full and History returns
// chronological order across the wrap point.
func TestRecorderRingWraparound(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	rec := NewRecorder(reg, RecorderOptions{Capacity: 4, Now: clk.now})
	for i := 0; i < 10; i++ {
		clk.advance(time.Second)
		rec.Sample()
	}
	h := rec.History()
	if len(h) != 4 {
		t.Fatalf("history length = %d, want capacity 4", len(h))
	}
	for i, s := range h {
		if want := int64(7 + i); s.Seq != want {
			t.Errorf("history[%d].Seq = %d, want %d (oldest-first across the wrap)", i, s.Seq, want)
		}
	}
	last, ok := rec.Latest()
	if !ok || last.Seq != 10 {
		t.Errorf("Latest = %+v, %v, want seq 10", last, ok)
	}
}

// History JSON round-trips through the documented envelope.
func TestRecorderHistoryJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Inc()
	clk := newTestClock()
	rec := NewRecorder(reg, RecorderOptions{Capacity: 8, Interval: 2 * time.Second, Now: clk.now})
	rec.Sample()
	clk.advance(2 * time.Second)
	reg.Counter("c").Add(3)
	rec.Sample()

	var buf bytes.Buffer
	if err := rec.WriteHistoryJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var env RecorderHistory
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("history JSON does not parse: %v", err)
	}
	if env.IntervalMs != 2000 || env.Capacity != 8 || len(env.Samples) != 2 {
		t.Errorf("envelope = interval %d, cap %d, %d samples; want 2000/8/2",
			env.IntervalMs, env.Capacity, len(env.Samples))
	}
	if c := sampleCounter(t, env.Samples[1], "c"); c.Delta != 3 {
		t.Errorf("decoded delta = %d, want 3", c.Delta)
	}

	// Nil recorder serves a valid empty envelope.
	buf.Reset()
	var nilRec *Recorder
	if err := nilRec.WriteHistoryJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil || len(env.Samples) != 0 {
		t.Errorf("nil recorder history = %q (err %v), want empty envelope", buf.String(), err)
	}
}

// Start/Stop run the periodic sampler and Stop is idempotent.
func TestRecorderStartStop(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, RecorderOptions{Interval: time.Millisecond, Capacity: 128})
	rec.Start()
	rec.Start() // second Start no-ops
	deadline := time.After(2 * time.Second)
	for {
		if _, ok := rec.Latest(); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sampler never produced a sample")
		case <-time.After(time.Millisecond):
		}
	}
	rec.Stop()
	rec.Stop() // idempotent
	n := len(rec.History())
	time.Sleep(5 * time.Millisecond)
	if got := len(rec.History()); got != n {
		t.Errorf("samples kept arriving after Stop: %d -> %d", n, got)
	}
}

func TestBucketQuantile(t *testing.T) {
	buckets := []BucketSnap{
		{UpperBound: 10, Count: 0},
		{UpperBound: 20, Count: 100},
		{UpperBound: 40, Count: 0},
		{UpperBound: math.Inf(1), Count: 0},
	}
	if p := BucketQuantile(buckets, 0.5); p != 15 {
		t.Errorf("p50 of uniform (10,20] bucket = %v, want 15 (midpoint interpolation)", p)
	}
	// Overflow-only mass reports the last finite bound.
	over := []BucketSnap{{UpperBound: 10, Count: 0}, {UpperBound: math.Inf(1), Count: 5}}
	if p := BucketQuantile(over, 0.99); p != 10 {
		t.Errorf("overflow p99 = %v, want last finite bound 10", p)
	}
	if p := BucketQuantile(nil, 0.5); p != 0 {
		t.Errorf("empty quantile = %v, want 0", p)
	}
}
