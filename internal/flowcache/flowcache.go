// Package flowcache provides the standard implementation of flow.Cache: a
// concurrency-safe, LRU-bounded, content-addressed memoization of completed
// implementation flows. The flow itself computes the keys (flow.CacheKey
// hashes the design's canonical text, the full tool configuration and the
// seed), so this package is a pure key-value store: any input change yields
// a new key and stale entries simply age out of the LRU — there is no other
// invalidation. Cached *flow.Result values are shared between every caller
// that hits the same key; consumers must treat them as read-only, which
// everything downstream of the flow (back-tracing, graph building, feature
// extraction) already does.
//
// AttachStore adds a persistent disk tier (internal/store) underneath the
// memory tier: lookups go memory hit → disk hit → recompute, and every Put
// writes through to disk, so a later process restores completed flows
// instead of re-running them. Disk entries are verified end to end before
// use — container digest in the store, then a semantic check here that the
// decoded result re-hashes to the requested key — and any failure
// quarantines the entry and degrades to recompute. The disk tier is
// best-effort by design: its errors never fail a lookup or a store.
package flowcache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/store"
)

// Stats is a point-in-time snapshot of cache effectiveness counters. It is
// always captured under one lock acquisition (see Cache.Stats), so the
// fields are mutually consistent — hits, misses, evictions, entry counts
// and byte totals all describe the same instant, and derived figures like
// HitRate can never mix counters from different moments. The counters
// describe the memory tier; the disk tier keeps its own (store.Stats).
type Stats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Evictions uint64
	Entries   int
	// Bytes is the resident payload footprint of the memory tier: the sum
	// of each entry's encoded-artifact size (store.EncodedResultSize — the
	// exact bytes the entry occupies when spilled to the disk tier, zero
	// for results with missing artifacts). EvictedBytes totals the sizes
	// of entries the LRU bound has evicted, so the memory tier's pressure
	// reads in the same unit as the disk tier's byte budget.
	Bytes        int64
	EvictedBytes uint64
}

// HitRate returns hits/(hits+misses), zero when the cache is untouched.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the snapshot as one log-friendly line, eviction and
// resident bytes included.
func (s Stats) String() string {
	return fmt.Sprintf("flowcache: %d hits, %d misses (%.1f%% hit rate), %d puts, %d evictions (%d bytes evicted), %d entries (%d bytes)",
		s.Hits, s.Misses, 100*s.HitRate(), s.Puts, s.Evictions, s.EvictedBytes, s.Entries, s.Bytes)
}

// Cache is a bounded LRU flow-result cache, safe for concurrent use by the
// dataset builder's worker pool.
type Cache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	puts      uint64
	evictions uint64
	bytes     int64
	evBytes   uint64

	// disk is the optional persistent tier; see AttachStore.
	disk *store.Store

	// Observation handles (nil when unobserved): registry counters
	// mirroring the internal counters, and an eviction event sink.
	obsHits, obsMisses, obsEvictions *obs.Counter
	obsrv                            *obs.Observer
}

type entry struct {
	key  string
	res  *flow.Result
	size int
}

// DefaultMaxEntries bounds a cache built with New(0). Each entry pins one
// full flow Result (netlist, placement, congestion map), so the default is
// sized for the paper's experiment sweeps — a few designs at a few label
// seeds each across directive variants — not for unbounded corpora.
const DefaultMaxEntries = 128

// New returns a cache holding at most maxEntries results; maxEntries <= 0
// selects DefaultMaxEntries.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		max:   maxEntries,
		ll:    list.New(),
		items: make(map[string]*list.Element, maxEntries),
	}
}

// AttachStore installs a persistent disk tier: memory misses consult the
// store before reporting a miss, and Puts write through to it. Call before
// the cache is shared with workers; a nil store detaches. The store's own
// hit/miss/corrupt/evict counters surface through its SetObserver.
func (c *Cache) AttachStore(s *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = s
}

// Store returns the attached disk tier, nil when none.
func (c *Cache) Store() *store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// SetObserver mirrors the cache's hit/miss/eviction counters into o's
// metrics registry (obs.MetricCacheHits and friends), forwards o to the
// attached disk tier (obs.MetricStoreHits and friends), and logs evictions
// at debug level. Call before the cache is shared with workers; a nil
// observer detaches.
func (c *Cache) SetObserver(o *obs.Observer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obsrv = o
	c.obsHits = o.Metrics().Counter(obs.MetricCacheHits)
	c.obsMisses = o.Metrics().Counter(obs.MetricCacheMisses)
	c.obsEvictions = o.Metrics().Counter(obs.MetricCacheEvictions)
	c.disk.SetObserver(o)
}

// Get implements flow.Cache: memory hit → disk hit → miss. A disk hit is
// decoded, verified against the requested key and promoted into the memory
// tier; any disk failure (missing, corrupt, verification mismatch) counts
// as this tier's miss and the caller recomputes.
func (c *Cache) Get(key string) (*flow.Result, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.obsHits.Add(1)
		c.ll.MoveToFront(el)
		res := el.Value.(*entry).res
		c.mu.Unlock()
		return res, true
	}
	c.misses++
	c.obsMisses.Add(1)
	disk := c.disk
	c.mu.Unlock()
	if disk == nil {
		return nil, false
	}
	// Disk tier, outside the lock: a slow read must not stall concurrent
	// memory hits. A racing fetch of the same key is benign — last insert
	// wins and both results are content-identical.
	payload, err := disk.Get(key)
	if err != nil {
		return nil, false
	}
	res, derr := store.DecodeResult(payload)
	if derr == nil {
		derr = store.VerifyResultKey(res, key)
	}
	if derr != nil {
		// The container digest passed but the artifact is not what the key
		// promises (codec drift, tampering): quarantine and recompute —
		// never serve it.
		disk.Corrupt(key, derr)
		if l := c.obsrv.Logger(); l != nil {
			l.Warn("flowcache rejected unverified disk entry", "key", key[:8], "error", derr)
		}
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		// Lost the race to another restorer; serve the resident result.
		c.ll.MoveToFront(el)
		res = el.Value.(*entry).res
	} else {
		c.insertLocked(key, res, store.EncodedResultSize(res))
	}
	c.mu.Unlock()
	return res, true
}

// Put implements flow.Cache. Storing an existing key refreshes its recency
// and replaces the value; storing a new key may evict the least recently
// used entry. With a disk tier attached the encoded artifact is written
// through (outside the lock); a failed disk write degrades to memory-only.
func (c *Cache) Put(key string, res *flow.Result) {
	if res == nil {
		return
	}
	size := store.EncodedResultSize(res)
	c.mu.Lock()
	disk := c.disk
	c.puts++
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(size) - int64(e.size)
		e.res, e.size = res, size
		c.ll.MoveToFront(el)
	} else {
		c.insertLocked(key, res, size)
	}
	c.mu.Unlock()
	if disk == nil || size == 0 {
		return
	}
	if enc, err := store.EncodeResult(res); err == nil {
		disk.Put(key, enc) // errors counted and logged by the store
	}
}

// insertLocked adds a new entry and evicts past the bound. Caller holds mu.
func (c *Cache) insertLocked(key string, res *flow.Result, size int) {
	c.items[key] = c.ll.PushFront(&entry{key: key, res: res, size: size})
	c.bytes += int64(size)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*entry)
		delete(c.items, e.key)
		c.bytes -= int64(e.size)
		c.evictions++
		c.evBytes += uint64(e.size)
		c.obsEvictions.Add(1)
		if l := c.obsrv.Logger(); l != nil {
			l.Debug("flowcache evicted LRU entry", "entries", c.ll.Len(),
				"evictions", c.evictions, "freed_bytes", e.size)
		}
	}
}

// Len returns the current number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the hit/miss/eviction counters and byte
// totals.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:         c.hits,
		Misses:       c.misses,
		Puts:         c.puts,
		Evictions:    c.evictions,
		Entries:      c.ll.Len(),
		Bytes:        c.bytes,
		EvictedBytes: c.evBytes,
	}
}

// Reset drops every memory-tier entry and zeroes the counters. The disk
// tier is untouched: its entries remain restorable.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element, c.max)
	c.hits, c.misses, c.puts, c.evictions = 0, 0, 0, 0
	c.bytes, c.evBytes = 0, 0
}

var _ flow.Cache = (*Cache)(nil)
