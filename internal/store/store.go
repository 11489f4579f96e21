// Package store is the crash-safe persistent artifact tier of the
// reproduction: a disk-backed, content-addressed store keyed by the same
// sha256 keys the in-memory flow cache uses (flow.CacheKey), plus codecs
// for the two artifact kinds that live in it — completed flow results
// (codec.go) and columnar datasets / per-module build checkpoints
// (dataset.go).
//
// Robustness is by construction, not by recovery tooling:
//
//   - Writes are atomic: payload → temp file in the target directory →
//     fsync → rename → directory fsync. A crash at any point leaves either
//     the complete previous state or a stray temp file the next Open
//     removes; a torn entry can never sit under a valid name with a valid
//     header.
//   - Reads verify: every Get re-hashes the payload against the entry's
//     embedded sha256 digest and checks the embedded key against the
//     requested one. A corrupt entry is quarantined (moved aside, never
//     deleted — the evidence survives for diagnosis) and reported as a
//     miss, so the caller recomputes; a wrong artifact is never returned.
//   - Open scans the store: stray temp files are removed, entries whose
//     header or size is inconsistent (torn writes) are quarantined, and
//     the byte budget is enforced — the store always starts consistent.
//   - Eviction is mtime-LRU under a configurable byte budget: Get touches
//     an entry's mtime, Put evicts oldest-touched entries until the new
//     entry fits. Invalidation stays by-construction: keys are content
//     hashes of everything that influences the artifact, so entries are
//     immutable and simply age out.
//
// Every failure path degrades to "not stored / not found": callers treat
// the disk tier as best-effort and fall back to recomputing, which the
// flow cache's memory tier already knows how to do.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// ErrNotFound reports a key with no (valid) entry on disk. Quarantined and
// evicted entries surface as ErrNotFound too: the caller's move is always
// the same — recompute.
var ErrNotFound = fmt.Errorf("store: artifact not found")

// Options tunes a Store.
type Options struct {
	// MaxBytes bounds the total payload-file bytes kept on disk; 0 means
	// unbounded. Eviction is mtime-LRU: least recently touched entries go
	// first.
	MaxBytes int64
	// EvictGrace exempts entries touched within this window from
	// eviction, so a concurrent reader in another process (a fleet worker
	// sharing the store directory) never has a just-written or
	// just-touched entry yanked out from under it. The budget may
	// overshoot while every entry is inside the grace window; it is
	// re-enforced as entries age. 0 disables the exemption.
	EvictGrace time.Duration
	// Faults optionally injects deterministic disk faults into the write
	// path (tests, chaos runs). Nil disables injection.
	Faults *faults.DiskScript
	// PutHook, when set, runs after every successful Put with the number
	// of Puts completed so far. The crash-recovery harness uses it to
	// SIGKILL the process at a deterministic point mid-build.
	PutHook func(puts int)
}

// Stats is a snapshot of the store's effectiveness counters, captured
// under one lock acquisition so the fields are mutually consistent.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Corrupt   uint64 // entries quarantined (scan + read-side verification)
	Evictions uint64 // entries evicted by the byte budget
	// EvictedBytes totals the file sizes the byte budget reclaimed.
	EvictedBytes uint64
	// PutErrors counts Puts that failed (I/O errors, injected faults) and
	// degraded to not-stored.
	PutErrors uint64
	Entries   int
	// Bytes is the current on-disk footprint of valid entries.
	Bytes int64
}

// String renders the snapshot as one log-friendly line.
func (s Stats) String() string {
	return fmt.Sprintf("store: %d hits, %d misses, %d puts (%d failed), %d corrupt quarantined, %d evictions (%d bytes), %d entries (%d bytes)",
		s.Hits, s.Misses, s.Puts, s.PutErrors, s.Corrupt, s.Evictions, s.EvictedBytes, s.Entries, s.Bytes)
}

// Store is a disk-backed content-addressed artifact store. Safe for
// concurrent use; one mutex guards the index and the I/O (the disk tier
// backs a memory cache, so contention here is the slow path by design).
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	sizes   map[string]int64 // key → entry file size
	bytes   int64
	seq     int // quarantine name disambiguator
	hits    uint64
	misses  uint64
	puts    uint64
	corrupt uint64
	evicts  uint64
	evBytes uint64
	putErrs uint64

	obsHits, obsMisses, obsCorrupt, obsEvicts *obs.Counter
	obsrv                                     *obs.Observer
}

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	entryExt      = ".art"
	tmpPrefix     = ".tmp-"
	// maxHeaderRead bounds the startup scan's per-file header read.
	maxHeaderRead = 256
)

// Open creates (if needed) and scans a store rooted at dir. Stray temp
// files from interrupted writes are removed; entries with inconsistent
// headers or sizes (torn writes) are quarantined; the byte budget is
// enforced. Open never fails because of a bad entry — only because the
// directory itself is unusable.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts, sizes: make(map[string]int64)}
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.enforceBudget(0)
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetObserver mirrors the store's hit/miss/corrupt/eviction counters into
// o's metrics registry (obs.MetricStoreHits and friends) and logs
// quarantines. A nil observer detaches. Nil-safe on a nil store.
func (s *Store) SetObserver(o *obs.Observer) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsrv = o
	s.obsHits = o.Metrics().Counter(obs.MetricStoreHits)
	s.obsMisses = o.Metrics().Counter(obs.MetricStoreMisses)
	s.obsCorrupt = o.Metrics().Counter(obs.MetricStoreCorrupt)
	s.obsEvicts = o.Metrics().Counter(obs.MetricStoreEvictions)
}

// keyPath maps a key to its entry path, sharded by the first two hex
// digits so no directory grows unboundedly.
func (s *Store) keyPath(key string) string {
	return filepath.Join(s.dir, objectsDir, key[:2], key+entryExt)
}

// validKey accepts exactly the keys the flow produces: lowercase hex
// sha256. Rejecting everything else keeps keys path-safe by construction.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the payload stored under key. The entry's embedded key and
// payload digest are verified; a corrupt entry is quarantined and reported
// as ErrNotFound. Reading touches the entry's mtime (the LRU clock).
func (s *Store) Get(key string) ([]byte, error) {
	if s == nil {
		return nil, ErrNotFound
	}
	if !validKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.keyPath(key)
	data, err := os.ReadFile(path)
	if err == nil {
		switch s.opts.Faults.Next(faults.DiskOpRead) {
		case faults.DiskReadError:
			err = faults.ErrReadFault
		case faults.DiskBitFlip:
			// Corrupt the in-memory copy only: models a read returning
			// flipped bits off dying media. The digest check below catches
			// it and the (actually fine) on-disk entry is quarantined —
			// exactly what a store facing a lying disk should do.
			data = append([]byte(nil), data...)
			if n := len(data); n > 0 {
				data[n-1] ^= 0x01
			}
		}
	}
	if err != nil {
		if os.IsNotExist(err) {
			// Another process sharing this directory evicted the entry:
			// drop the phantom index row so Entries/Bytes track reality
			// and the budget math stays honest.
			if size, ok := s.sizes[key]; ok {
				s.bytes -= size
				delete(s.sizes, key)
			}
		}
		s.misses++
		s.obsMisses.Add(1)
		return nil, ErrNotFound
	}
	gotKey, payload, derr := decodeEntry(data)
	if derr == nil && gotKey != key {
		derr = fmt.Errorf("store: entry carries key %q, want %q", gotKey, key)
	}
	if derr != nil {
		s.quarantineLocked(path, key, derr)
		s.misses++
		s.obsMisses.Add(1)
		return nil, ErrNotFound
	}
	s.hits++
	s.obsHits.Add(1)
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort LRU touch
	return payload, nil
}

// Put stores payload under key with the atomic-write protocol. Errors
// (including injected faults) leave no partial entry behind and are
// reported to the caller, who treats the store as best-effort.
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return fmt.Errorf("store: nil store")
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	data := encodeEntry(key, payload)
	s.mu.Lock()
	err := s.putLocked(key, data)
	var hook func(puts int)
	var puts int
	if err != nil {
		s.putErrs++
		if l := s.obsrv.Logger(); l != nil {
			l.Warn("store put failed, degrading to not-stored", "key", key[:8], "error", err)
		}
	} else {
		s.puts++
		puts = int(s.puts)
		hook = s.opts.PutHook
	}
	s.mu.Unlock()
	if hook != nil {
		hook(puts)
	}
	return err
}

// putLocked writes one encoded entry atomically and enforces the budget.
func (s *Store) putLocked(key string, data []byte) error {
	shard := filepath.Join(s.dir, objectsDir, key[:2])
	if err := os.MkdirAll(shard, 0o777); err != nil {
		return fmt.Errorf("store: put %s: %w", key[:8], err)
	}
	// Make room first so the budget holds even while the new entry lands.
	if old, ok := s.sizes[key]; ok {
		s.bytes -= old
		delete(s.sizes, key)
	}
	s.enforceBudget(int64(len(data)))

	f, err := os.CreateTemp(shard, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key[:8], err)
	}
	tmp := f.Name()
	werr := s.faultedWrite(f, data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil && s.opts.Faults.Next(faults.DiskOpRename) == faults.DiskRenameFail {
		werr = fmt.Errorf("store: injected rename failure")
	}
	if werr == nil {
		werr = os.Rename(tmp, s.keyPath(key))
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	syncDir(shard)
	s.sizes[key] = int64(len(data))
	s.bytes += int64(len(data))
	return nil
}

// faultedWrite writes data through the fault injector: a torn write lands
// a truncated prefix (and still reports success, like a crash after a
// buffered write), a bit flip corrupts one byte, ENOSPC fails cleanly.
func (s *Store) faultedWrite(w io.Writer, data []byte) error {
	switch s.opts.Faults.Next(faults.DiskOpWrite) {
	case faults.DiskTornWrite:
		_, err := w.Write(data[:len(data)/2])
		return err
	case faults.DiskBitFlip:
		flipped := make([]byte, len(data))
		copy(flipped, data)
		if n := len(flipped); n > 0 {
			flipped[n-1] ^= 0x01 // last byte: payload, not header
		}
		_, err := w.Write(flipped)
		return err
	case faults.DiskNoSpace:
		return faults.ErrNoSpace
	}
	_, err := w.Write(data)
	return err
}

// enforceBudget evicts oldest-mtime entries until incoming more bytes fit
// under MaxBytes. Called with mu held.
//
// Two guards protect concurrent readers in other processes sharing the
// directory (the fleet's shared-store deployment):
//
//   - Entries touched within Options.EvictGrace are exempt, so an entry a
//     sibling just Got (its Get touches the mtime) or just Put cannot
//     disappear between the sibling's index lookup and its read.
//   - Eviction is rename-aside, not unlink-in-place: the entry first moves
//     to a temp-prefixed name (atomic, same directory), then the temp file
//     is removed. A reader that raced the eviction sees either the complete
//     entry or a clean ENOENT miss — never a partially removed one — and
//     any crash mid-eviction leaves only a temp file the next Open sweeps.
func (s *Store) enforceBudget(incoming int64) {
	if s.opts.MaxBytes <= 0 || s.bytes+incoming <= s.opts.MaxBytes {
		return
	}
	graceFloor := int64(0)
	if s.opts.EvictGrace > 0 {
		graceFloor = time.Now().Add(-s.opts.EvictGrace).UnixNano()
	}
	type aged struct {
		key   string
		size  int64
		mtime int64
	}
	entries := make([]aged, 0, len(s.sizes))
	for key, size := range s.sizes {
		var mt int64
		if fi, err := os.Stat(s.keyPath(key)); err == nil {
			mt = fi.ModTime().UnixNano()
		}
		if mt >= graceFloor && graceFloor > 0 {
			continue // recently touched: a sibling process may be mid-read
		}
		entries = append(entries, aged{key, size, mt})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mtime != entries[j].mtime {
			return entries[i].mtime < entries[j].mtime
		}
		return entries[i].key < entries[j].key // deterministic tie-break
	})
	for _, e := range entries {
		if s.bytes+incoming <= s.opts.MaxBytes {
			break
		}
		path := s.keyPath(e.key)
		aside := filepath.Join(filepath.Dir(path), tmpPrefix+"evict-"+filepath.Base(path))
		if os.Rename(path, aside) == nil {
			os.Remove(aside)
		} else {
			os.Remove(path) // rename failed (e.g. already gone): best effort
		}
		delete(s.sizes, e.key)
		s.bytes -= e.size
		s.evicts++
		s.evBytes += uint64(e.size)
		s.obsEvicts.Add(1)
		if l := s.obsrv.Logger(); l != nil {
			l.Debug("store evicted LRU entry", "key", e.key[:8], "bytes", e.size)
		}
	}
}

// quarantineLocked moves a corrupt file into quarantine/ under a unique
// name and counts it. The original bytes are preserved for diagnosis.
func (s *Store) quarantineLocked(path, key string, cause error) {
	s.seq++
	dst := filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s.%d", filepath.Base(path), s.seq))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path) // refuse to serve it even if the move failed
	}
	if size, ok := s.sizes[key]; ok {
		s.bytes -= size
		delete(s.sizes, key)
	}
	s.corrupt++
	s.obsCorrupt.Add(1)
	if l := s.obsrv.Logger(); l != nil {
		l.Warn("store quarantined corrupt entry", "file", filepath.Base(path), "cause", cause)
	}
}

// scan walks objects/, removing stray temp files and quarantining entries
// whose header or size is inconsistent. Full digests are not hashed here —
// Get verifies them on first use — so startup stays O(entries), not
// O(bytes).
func (s *Store) scan() error {
	root := filepath.Join(s.dir, objectsDir)
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(path) // interrupted write; the rename never happened
			return nil
		}
		if !strings.HasSuffix(name, entryExt) {
			return nil // not ours; leave it alone
		}
		key := strings.TrimSuffix(name, entryExt)
		fi, statErr := d.Info()
		if statErr != nil {
			return nil
		}
		verr := func() error {
			if !validKey(key) {
				return fmt.Errorf("store: entry filename %q is not a valid key", name)
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			header := make([]byte, maxHeaderRead)
			n, _ := io.ReadFull(f, header)
			return checkEntryHeader(header[:n], fi.Size(), key)
		}()
		s.mu.Lock()
		if verr != nil {
			s.quarantineLocked(path, key, verr)
		} else {
			s.sizes[key] = fi.Size()
			s.bytes += fi.Size()
		}
		s.mu.Unlock()
		return nil
	})
}

// VerifyAll re-reads and fully verifies every entry (header, key, payload
// digest), quarantining failures. It returns how many entries verified
// clean and how many were quarantined.
func (s *Store) VerifyAll() (ok, quarantined int) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.sizes))
	for key := range s.sizes {
		keys = append(keys, key)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		s.mu.Lock()
		path := s.keyPath(key)
		data, err := os.ReadFile(path)
		if err == nil {
			var gotKey string
			gotKey, _, err = decodeEntry(data)
			if err == nil && gotKey != key {
				err = fmt.Errorf("store: entry carries key %q, want %q", gotKey, key)
			}
		}
		if err != nil {
			s.quarantineLocked(path, key, err)
			quarantined++
		} else {
			ok++
		}
		s.mu.Unlock()
	}
	return ok, quarantined
}

// Len returns the number of valid entries currently indexed.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sizes)
}

// Bytes returns the current on-disk footprint of valid entries.
func (s *Store) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats returns a consistent snapshot of the counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Puts: s.puts, Corrupt: s.corrupt,
		Evictions: s.evicts, EvictedBytes: s.evBytes, PutErrors: s.putErrs,
		Entries: len(s.sizes), Bytes: s.bytes,
	}
}

// Corrupt quarantines the entry under key (if present) and counts it.
// The flow-cache tier calls this when an entry decodes cleanly at the
// container level but fails semantic verification (recomputed cache key
// mismatch) — the "never a wrong artifact" backstop.
func (s *Store) Corrupt(key string, cause error) {
	if s == nil || !validKey(key) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.keyPath(key)
	if _, err := os.Stat(path); err != nil {
		return
	}
	s.quarantineLocked(path, key, cause)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
