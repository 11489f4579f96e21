package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Fixed bucket sets. Histograms in this package always use fixed bounds
// (see DESIGN.md §8): the hot path is then one binary search plus one
// atomic increment — no allocation, no lock, no rebalancing — and two
// snapshots of the same metric are mergeable and byte-comparable.
var (
	// DefaultDurationBuckets is the millisecond scale for stage and cell
	// durations: sub-millisecond HLS stages up to minute-long full builds.
	DefaultDurationBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000, 60000}
	// RatioBuckets covers [0, 1] quantities such as accept and hit rates.
	RatioBuckets = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	// SmallCountBuckets covers small integer counts such as router
	// negotiation iterations or retry attempts.
	SmallCountBuckets = []float64{1, 2, 3, 4, 5, 8, 12, 16, 24, 32}
	// LatencyMicrosBuckets is the microsecond scale of the serving path:
	// sub-window fast turnarounds up to second-long outliers.
	LatencyMicrosBuckets = []float64{25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200, 102400, 409600, 1638400}
	// BatchRowsBuckets covers coalesced-batch row counts (powers of two up
	// to the largest sensible size cap).
	BatchRowsBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
)

// Counter is a monotonically increasing count. The zero value is ready;
// all methods are atomic and nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float value that can go up and down: Set overwrites it, Add
// moves it by a delta. All methods are atomic and nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by d. Concurrent Adds never lose an update, so a
// gauge fed matching +1/-1 pairs (an in-flight count) returns to exactly
// its starting value once every pair has completed.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, d)
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution with atomic observation.
// bounds[i] is the inclusive upper edge of bucket i; one overflow bucket
// catches everything above the last bound. Sum, min and max are tracked
// exactly (CAS loops on the float bits), so snapshots report a true mean
// alongside the bucketed shape. The count is not stored: a snapshot sums
// the buckets it read, so a scrape taken during traffic never reports a
// count that disagrees with its own +Inf bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last = overflow
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until first observation
	maxBits atomic.Uint64 // -Inf until first observation
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Nil-safe, lock-free, allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	addFloat(&h.sumBits, v)
	casLess(&h.minBits, v)
	casMore(&h.maxBits, v)
}

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// casLess lowers the stored float to v when v is smaller.
func casLess(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v >= math.Float64frombits(old) || bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// casMore raises the stored float to v when v is larger.
func casMore(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v <= math.Float64frombits(old) || bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Registry holds named metrics. Registration (the first use of a name)
// takes a mutex; every subsequent operation on the returned handle is
// atomic. The zero value is not usable — construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use.
// Nil-safe: a nil registry returns a nil handle whose methods no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it with bounds on
// first use (later calls keep the original bounds). Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketSnap is one histogram bucket in a snapshot: the count of
// observations at or below the upper bound (and above the previous one).
// The overflow bucket carries +Inf, serialized by the JSON writer as the
// string "+Inf".
type BucketSnap struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnap is one histogram in a snapshot.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Mean    float64      `json:"mean"`
	Buckets []BucketSnap `json:"buckets"`
}

// Snapshot is a point-in-time view of every registered metric, each
// section sorted by name so exports are deterministic.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// Counter returns the named counter's value in the snapshot (0, false when
// absent).
func (s Snapshot) Counter(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the named gauge's value in the snapshot.
func (s Snapshot) Gauge(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram in the snapshot (nil when absent).
func (s Snapshot) Histogram(name string) *HistogramSnap {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// Snapshot captures every registered metric. Observations racing the
// snapshot land in either this one or the next — each individual value is
// read atomically. Nil-safe: a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for name, c := range counters {
		snap.Counters = append(snap.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	for name, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	for name, h := range hists {
		hs := HistogramSnap{Name: name, Buckets: make([]BucketSnap, len(h.buckets))}
		for i := range h.buckets {
			ub := math.Inf(1)
			if i < len(h.bounds) {
				ub = h.bounds[i]
			}
			n := h.buckets[i].Load()
			hs.Buckets[i] = BucketSnap{UpperBound: ub, Count: n}
			hs.Count += n
		}
		hs.Sum = math.Float64frombits(h.sumBits.Load())
		if hs.Count > 0 {
			hs.Min = math.Float64frombits(h.minBits.Load())
			hs.Max = math.Float64frombits(h.maxBits.Load())
			hs.Mean = hs.Sum / float64(hs.Count)
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}
