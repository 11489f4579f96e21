package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// Recorder samples a Registry on a fixed interval into a fixed-capacity
// ring buffer, deriving what a point-in-time snapshot cannot show:
// counter deltas and per-second rates, histogram window deltas with
// interpolated p50/p99, all relative to the previous sample. The ring
// gives /debug/metrics/history a bounded sliding window — capacity ×
// interval of look-back, old samples overwritten in place — which is also
// the flight recorder a breach capture dumps to disk.
//
// Sampling runs outside the measured code: the request path writes the
// same lock-free atomics whether or not a recorder is attached, so an
// attached recorder costs the hot path nothing (the PR 5/PR 10 alloc and
// overhead gates pin this). All methods are nil-safe.
type Recorder struct {
	reg      *Registry
	interval time.Duration
	now      func() time.Time

	mu       sync.Mutex
	ring     []RecorderSample
	next     int // ring insertion index
	filled   bool
	seq      int64
	prev     *Snapshot
	prevAt   time.Time
	onSample []func(RecorderSample)

	stop chan struct{}
	done chan struct{}
}

// RecorderOptions configures a Recorder; the zero value gets defaults.
type RecorderOptions struct {
	// Interval between samples for Start (default 1s).
	Interval time.Duration
	// Capacity of the ring buffer in samples (default 300).
	Capacity int
	// Now injects a clock for tests (default time.Now).
	Now func() time.Time
}

// CounterRate is one counter in a sample: lifetime total plus the change
// over the sample window and its per-second rate. A total below the
// previous sample's (a restarted or reloaded writer) is treated as a
// counter reset: the delta is the new total, Prometheus-style.
type CounterRate struct {
	Name   string  `json:"name"`
	Total  int64   `json:"total"`
	Delta  int64   `json:"delta"`
	PerSec float64 `json:"per_sec"`
}

// HistWindow is one histogram's activity within a sample window: the
// observations that arrived since the previous sample, with quantiles
// interpolated from the window's bucket deltas (not the lifetime shape, so
// a p99 spike shows in the sample where it happened).
type HistWindow struct {
	Name    string       `json:"name"`
	Total   int64        `json:"total"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	P50     float64      `json:"p50"`
	P99     float64      `json:"p99"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// RecorderSample is one ring entry: when it was taken, how long the window
// back to the previous sample was, and the derived series. The first
// sample after start (or after a reset) has WindowMs 0 and all-zero deltas
// and rates — there is no window to rate over yet.
type RecorderSample struct {
	Seq      int64         `json:"seq"`
	UnixMs   int64         `json:"t_ms"`
	WindowMs int64         `json:"window_ms"`
	Counters []CounterRate `json:"counters"`
	Gauges   []GaugeSnap   `json:"gauges"`
	Hists    []HistWindow  `json:"hists"`
}

// NewRecorder returns a recorder over reg. Start launches periodic
// sampling; Sample takes one synchronously (tests and one-shot captures).
func NewRecorder(reg *Registry, opts RecorderOptions) *Recorder {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 300
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Recorder{
		reg:      reg,
		interval: opts.Interval,
		now:      opts.Now,
		ring:     make([]RecorderSample, opts.Capacity),
	}
}

// Interval returns the configured sampling interval (0 for nil).
func (r *Recorder) Interval() time.Duration {
	if r == nil {
		return 0
	}
	return r.interval
}

// OnSample registers fn to run synchronously after each sample lands —
// the hook breach watchers attach to. Register before Start. Nil-safe.
func (r *Recorder) OnSample(fn func(RecorderSample)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.onSample = append(r.onSample, fn)
	r.mu.Unlock()
}

// Start launches the sampling goroutine. Calling Start on an already
// started (or nil) recorder no-ops. Stop ends it.
func (r *Recorder) Start() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.stop != nil {
		r.mu.Unlock()
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	stop, done := r.stop, r.done
	r.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(r.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.Sample()
			}
		}
	}()
}

// Stop ends periodic sampling and waits for the goroutine to exit.
// Nil-safe and idempotent.
func (r *Recorder) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Sample takes one sample now: snapshot the registry, derive deltas and
// rates against the previous sample, append to the ring, and run the
// OnSample hooks. Nil-safe (returns the zero sample).
func (r *Recorder) Sample() RecorderSample {
	if r == nil {
		return RecorderSample{}
	}
	snap := r.reg.Snapshot()
	at := r.now()

	r.mu.Lock()
	r.seq++
	s := RecorderSample{Seq: r.seq, UnixMs: at.UnixMilli(), Gauges: snap.Gauges}
	var window time.Duration
	if r.prev != nil {
		window = at.Sub(r.prevAt)
		if window < 0 {
			window = 0
		}
	}
	s.WindowMs = window.Milliseconds()
	secs := window.Seconds()

	for _, c := range snap.Counters {
		cr := CounterRate{Name: c.Name, Total: c.Value}
		if r.prev != nil {
			prev, _ := r.prev.Counter(c.Name)
			cr.Delta = counterDelta(prev, c.Value)
			if secs > 0 {
				cr.PerSec = float64(cr.Delta) / secs
			}
		}
		s.Counters = append(s.Counters, cr)
	}
	for i := range snap.Histograms {
		h := &snap.Histograms[i]
		var prev *HistogramSnap
		if r.prev != nil {
			prev = r.prev.Histogram(h.Name)
		}
		hw := histogramWindow(prev, h)
		if r.prev == nil {
			// First sample: totals only, no window to delta over.
			hw = HistWindow{Name: h.Name, Total: h.Count}
		}
		s.Hists = append(s.Hists, hw)
	}

	r.prev = &snap
	r.prevAt = at
	r.ring[r.next] = s
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
	hooks := r.onSample
	r.mu.Unlock()

	for _, fn := range hooks {
		fn(s)
	}
	return s
}

// History returns the ring's samples, oldest first. Nil-safe.
func (r *Recorder) History() []RecorderSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []RecorderSample
	if r.filled {
		out = append(out, r.ring[r.next:]...)
	}
	out = append(out, r.ring[:r.next]...)
	return out
}

// Latest returns the most recent sample (zero, false when none yet).
func (r *Recorder) Latest() (RecorderSample, bool) {
	if r == nil {
		return RecorderSample{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq == 0 {
		return RecorderSample{}, false
	}
	i := r.next - 1
	if i < 0 {
		i = len(r.ring) - 1
	}
	return r.ring[i], true
}

// RecorderHistory is the JSON envelope of /debug/metrics/history.
type RecorderHistory struct {
	IntervalMs int64            `json:"interval_ms"`
	Capacity   int              `json:"capacity"`
	Samples    []RecorderSample `json:"samples"`
}

// WriteHistoryJSON serializes the ring as a RecorderHistory document.
// Nil-safe: a nil recorder writes an empty envelope.
func (r *Recorder) WriteHistoryJSON(w io.Writer) error {
	env := RecorderHistory{Samples: []RecorderSample{}}
	if r != nil {
		env.IntervalMs = r.interval.Milliseconds()
		env.Capacity = len(r.ring)
		if h := r.History(); h != nil {
			env.Samples = h
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

// counterDelta is the window increase of a cumulative counter: cur-prev,
// except a shrunk counter means the writer restarted (model reload, new
// process behind the same endpoint) and the whole current total is the
// window's increase — the Prometheus rate() reset rule.
func counterDelta(prev, cur int64) int64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// histogramWindow derives one histogram's window activity between two
// snapshots of the same metric. prev may be nil (everything counts as the
// window, the reset rule); cur must be non-nil.
func histogramWindow(prev, cur *HistogramSnap) HistWindow {
	hw := HistWindow{Name: cur.Name, Total: cur.Count}
	reset := prev == nil || cur.Count < prev.Count
	if reset {
		prev = nil
	}
	if prev == nil {
		hw.Count = cur.Count
		hw.Sum = cur.Sum
	} else {
		hw.Count = cur.Count - prev.Count
		hw.Sum = cur.Sum - prev.Sum
	}
	if hw.Count <= 0 {
		// Empty window: no quantiles to report, no buckets worth shipping.
		hw.Count = 0
		hw.Sum = 0
		return hw
	}
	hw.Buckets = make([]BucketSnap, len(cur.Buckets))
	for i, b := range cur.Buckets {
		d := b.Count
		if prev != nil && i < len(prev.Buckets) {
			d -= prev.Buckets[i].Count
			if d < 0 {
				d = 0
			}
		}
		hw.Buckets[i] = BucketSnap{UpperBound: b.UpperBound, Count: d}
	}
	hw.P50 = BucketQuantile(hw.Buckets, 0.5)
	hw.P99 = BucketQuantile(hw.Buckets, 0.99)
	return hw
}

// BucketQuantile estimates quantile q (in [0, 1]) from per-bucket (not
// cumulative) counts, interpolating linearly within the containing bucket.
// The overflow (+Inf) bucket reports its lower edge — the last finite
// bound — since no upper edge exists to interpolate toward. Returns 0 for
// an empty window.
func BucketQuantile(buckets []BucketSnap, q float64) float64 {
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	lower := 0.0
	for _, b := range buckets {
		if b.Count == 0 {
			if !math.IsInf(b.UpperBound, 1) {
				lower = b.UpperBound
			}
			continue
		}
		if float64(cum+b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				// Overflow bucket: no finite upper edge.
				return lower
			}
			frac := (rank - float64(cum)) / float64(b.Count)
			return lower + (b.UpperBound-lower)*frac
		}
		cum += b.Count
		lower = b.UpperBound
	}
	return lower
}
