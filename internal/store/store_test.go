package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// testKey returns a distinct valid (64-hex) key per index.
func testKey(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quarantined(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func TestPutGetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	key, payload := testKey(0), []byte("hello artifact")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("Get = %q, want %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Puts != 1 || st.Entries != 1 || st.Bytes != int64(entrySize(key, len(payload))) {
		t.Errorf("unexpected stats after roundtrip: %+v", st)
	}

	// The entry survives a reopen: the scan re-indexes it.
	s2 := openStore(t, dir, Options{})
	if s2.Len() != 1 || s2.Bytes() != s.Bytes() {
		t.Fatalf("reopen lost the entry: len=%d bytes=%d", s2.Len(), s2.Bytes())
	}
	if got, err := s2.Get(key); err != nil || string(got) != string(payload) {
		t.Fatalf("Get after reopen = %q, %v", got, err)
	}
}

func TestGetMissingReportsNotFound(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	if _, err := s.Get(testKey(7)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	for _, key := range []string{
		"", "short", strings.Repeat("g", 64), strings.Repeat("A", 64),
		"../" + strings.Repeat("a", 61), strings.Repeat("a", 63) + "/",
	} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, err := s.Get(key); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q) = %v, want an invalid-key error", key, err)
		}
	}
}

func TestBitFlipQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	script := faults.NewDiskScript(map[faults.DiskKey]faults.DiskFault{
		{Op: faults.DiskOpWrite, N: 0}: faults.DiskBitFlip,
	})
	s := openStore(t, dir, Options{Faults: script})
	key := testKey(0)
	// The flipped write reports success — the corruption is only
	// discoverable by the read-side digest check.
	if err := s.Put(key, []byte("payload-to-corrupt")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(corrupt) = %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Entries != 0 {
		t.Errorf("stats after corrupt get: %+v", st)
	}
	if n := quarantined(t, dir); n != 1 {
		t.Errorf("quarantine holds %d files, want 1 (evidence preserved)", n)
	}
	// The entry stays gone: a second Get is a plain miss.
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get = %v, want ErrNotFound", err)
	}
}

func TestTornWriteQuarantinedAtScan(t *testing.T) {
	dir := t.TempDir()
	script := faults.NewDiskScript(map[faults.DiskKey]faults.DiskFault{
		{Op: faults.DiskOpWrite, N: 0}: faults.DiskTornWrite,
	})
	s := openStore(t, dir, Options{Faults: script})
	if err := s.Put(testKey(0), []byte("this payload will be torn in half")); err != nil {
		t.Fatal(err)
	}
	// A fresh Open scans the store: the half-length file fails the
	// header-vs-size check and is quarantined before anyone reads it.
	s2 := openStore(t, dir, Options{})
	if s2.Len() != 0 {
		t.Fatalf("reopen indexed %d entries, want 0", s2.Len())
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("scan corrupt count = %d, want 1", st.Corrupt)
	}
	if n := quarantined(t, dir); n != 1 {
		t.Errorf("quarantine holds %d files, want 1", n)
	}
}

func TestNoSpaceFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	script := faults.NewDiskScript(map[faults.DiskKey]faults.DiskFault{
		{Op: faults.DiskOpWrite, N: 0}: faults.DiskNoSpace,
	})
	s := openStore(t, dir, Options{Faults: script})
	err := s.Put(testKey(0), []byte("won't fit"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put under ENOSPC = %v, want syscall.ENOSPC", err)
	}
	if st := s.Stats(); st.PutErrors != 1 || st.Entries != 0 {
		t.Errorf("stats after ENOSPC: %+v", st)
	}
	// Second Put succeeds: the fault was a one-shot.
	if err := s.Put(testKey(0), []byte("fits now")); err != nil {
		t.Fatal(err)
	}
}

func TestRenameFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	script := faults.NewDiskScript(map[faults.DiskKey]faults.DiskFault{
		{Op: faults.DiskOpRename, N: 0}: faults.DiskRenameFail,
	})
	s := openStore(t, dir, Options{Faults: script})
	key := testKey(0)
	if err := s.Put(key, []byte("never lands")); err == nil {
		t.Fatal("Put with injected rename failure succeeded")
	}
	var temps []string
	filepath.WalkDir(filepath.Join(dir, objectsDir), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), tmpPrefix) {
			temps = append(temps, path)
		}
		return nil
	})
	if len(temps) != 0 {
		t.Errorf("failed Put left temp files behind: %v", temps)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after failed Put = %v, want ErrNotFound", err)
	}
	if err := s.Put(key, []byte("retry lands")); err != nil {
		t.Fatal(err)
	}
}

func TestStrayTempRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, objectsDir, "ab")
	if err := os.MkdirAll(shard, 0o777); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(shard, tmpPrefix+"12345")
	if err := os.WriteFile(stray, []byte("interrupted write"), 0o666); err != nil {
		t.Fatal(err)
	}
	openStore(t, dir, Options{})
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stray temp file survived Open: %v", err)
	}
}

func TestEvictionIsMtimeLRU(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(strings.Repeat("x", 100))
	one := int64(entrySize(testKey(0), len(payload)))
	s := openStore(t, dir, Options{MaxBytes: 2 * one})
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 2; i++ {
		if err := s.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
		// Filesystem mtime granularity can collapse back-to-back writes;
		// pin distinct, ordered mtimes so the LRU order is unambiguous.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.keyPath(testKey(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 0 (a Get refreshes mtime), making entry 1 the LRU victim.
	if _, err := s.Get(testKey(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(2), payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(testKey(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU entry 1 still present: %v", err)
	}
	if _, err := s.Get(testKey(0)); err != nil {
		t.Fatalf("recently touched entry 0 was evicted: %v", err)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.EvictedBytes != uint64(one) || st.Bytes > 2*one {
		t.Errorf("eviction stats: %+v (entry size %d)", st, one)
	}
}

func TestBudgetEnforcedAtOpen(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(strings.Repeat("y", 50))
	s := openStore(t, dir, Options{})
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.keyPath(testKey(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	one := int64(entrySize(testKey(0), len(payload)))
	s2 := openStore(t, dir, Options{MaxBytes: one})
	if s2.Len() != 1 {
		t.Fatalf("open with budget kept %d entries, want 1", s2.Len())
	}
	if _, err := s2.Get(testKey(2)); err != nil {
		t.Errorf("newest entry evicted instead of oldest: %v", err)
	}
}

func TestCorruptQuarantinesEntry(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	key := testKey(0)
	if err := s.Put(key, []byte("semantically wrong")); err != nil {
		t.Fatal(err)
	}
	s.Corrupt(key, fmt.Errorf("verification mismatch"))
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Corrupt = %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Errorf("stats after Corrupt: %+v", st)
	}
	if n := quarantined(t, dir); n != 1 {
		t.Errorf("quarantine holds %d files, want 1", n)
	}
	// Corrupt on a missing key is a no-op.
	s.Corrupt(testKey(9), fmt.Errorf("x"))
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("Corrupt(missing) counted: %+v", st)
	}
}

func TestVerifyAllFindsSilentCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 2; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("payload %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one payload byte directly on disk — the header still parses, so
	// only a full digest check can find it.
	path := s.keyPath(testKey(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	ok, bad := s.VerifyAll()
	if ok != 1 || bad != 1 {
		t.Fatalf("VerifyAll = (%d ok, %d quarantined), want (1, 1)", ok, bad)
	}
	if n := quarantined(t, dir); n != 1 {
		t.Errorf("quarantine holds %d files, want 1", n)
	}
	if ok, bad := s.VerifyAll(); ok != 1 || bad != 0 {
		t.Fatalf("second VerifyAll = (%d, %d), want (1, 0)", ok, bad)
	}
}

func TestPutReplacesExistingKey(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	key := testKey(0)
	if err := s.Put(key, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("second, longer payload")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil || string(got) != "second, longer payload" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != int64(entrySize(key, len("second, longer payload"))) {
		t.Errorf("replacement double-counted: %+v", st)
	}
}

func TestPutHookReportsCount(t *testing.T) {
	var calls []int
	s := openStore(t, t.TempDir(), Options{PutHook: func(n int) { calls = append(calls, n) }})
	s.Put(testKey(0), []byte("a"))
	s.Put(testKey(1), []byte("b"))
	if len(calls) != 2 || calls[0] != 1 || calls[1] != 2 {
		t.Errorf("PutHook calls = %v, want [1 2]", calls)
	}
}

func TestObserverMirrorsCounters(t *testing.T) {
	dir := t.TempDir()
	script := faults.NewDiskScript(map[faults.DiskKey]faults.DiskFault{
		{Op: faults.DiskOpWrite, N: 1}: faults.DiskBitFlip,
	})
	one := int64(entrySize(testKey(0), 1))
	o := obs.New()
	s := openStore(t, dir, Options{MaxBytes: 2 * one, Faults: script})
	s.SetObserver(o)
	base := time.Now().Add(-time.Hour)
	s.Put(testKey(0), []byte("a")) // clean
	os.Chtimes(s.keyPath(testKey(0)), base, base)
	s.Put(testKey(1), []byte("b")) // bit-flipped on disk
	s.Get(testKey(0))              // hit
	s.Get(testKey(1))              // corrupt → quarantine + miss
	s.Get(testKey(9))              // miss
	s.Put(testKey(2), []byte("c"))
	s.Put(testKey(3), []byte("d")) // evicts the oldest
	snap := o.Reg.Snapshot()
	for name, want := range map[string]int64{
		obs.MetricStoreHits:      1,
		obs.MetricStoreMisses:    2,
		obs.MetricStoreCorrupt:   1,
		obs.MetricStoreEvictions: 1,
	} {
		if got, _ := snap.Counter(name); got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	if _, err := s.Get(testKey(0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("nil Get = %v, want ErrNotFound", err)
	}
	if err := s.Put(testKey(0), []byte("x")); err == nil {
		t.Error("nil Put succeeded")
	}
	s.Corrupt(testKey(0), fmt.Errorf("x"))
	s.SetObserver(obs.New())
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Error("nil Len/Bytes nonzero")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil Stats = %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	st := Stats{Hits: 2, Misses: 1, Puts: 3, PutErrors: 1, Corrupt: 1,
		Evictions: 2, EvictedBytes: 300, Entries: 4, Bytes: 1024}
	want := "store: 2 hits, 1 misses, 3 puts (1 failed), 1 corrupt quarantined, 2 evictions (300 bytes), 4 entries (1024 bytes)"
	if got := st.String(); got != want {
		t.Errorf("Stats.String() = %q, want %q", got, want)
	}
}

func TestEntryCodec(t *testing.T) {
	key, payload := testKey(3), []byte("entry payload")
	data := encodeEntry(key, payload)
	if len(data) != entrySize(key, len(payload)) {
		t.Fatalf("encoded entry is %d bytes, entrySize says %d", len(data), entrySize(key, len(payload)))
	}
	gotKey, gotPayload, err := decodeEntry(data)
	if err != nil || gotKey != key || string(gotPayload) != string(payload) {
		t.Fatalf("decodeEntry = (%q, %q, %v)", gotKey, gotPayload, err)
	}
	if err := checkEntryHeader(data, int64(len(data)), key); err != nil {
		t.Errorf("checkEntryHeader rejected a valid entry: %v", err)
	}
	if err := checkEntryHeader(data, int64(len(data)-1), key); err == nil {
		t.Error("checkEntryHeader accepted a truncated file size")
	}
	if err := checkEntryHeader(data, int64(len(data)), testKey(4)); err == nil {
		t.Error("checkEntryHeader accepted a filename/key mismatch")
	}
	for _, mut := range []int{0, 4, 5, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[mut] ^= 0x01
		if _, _, err := decodeEntry(bad); err == nil {
			t.Errorf("decodeEntry accepted a corrupt byte at offset %d", mut)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 20; i++ {
				key := testKey(w*20 + i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if got, err := s.Get(key); err != nil || string(got) != key {
					t.Errorf("Get(%q) = %q, %v", key, got, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if s.Len() != 80 {
		t.Errorf("Len = %d, want 80", s.Len())
	}
}

// TestConcurrentOpensEvictionRace is the regression test for the
// cross-process eviction race: two Stores on one directory (modeling two
// processes sharing the artifact tier), where A's
// byte budget evicts an entry B still has indexed. B's Get must degrade to
// a clean ErrNotFound miss — never a partial read, never a quarantine of a
// phantom — and B's index must self-heal so its byte accounting matches
// the directory again.
func TestConcurrentOpensEvictionRace(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(strings.Repeat("z", 100))
	one := int64(entrySize(testKey(0), len(payload)))

	// A enforces a 2-entry budget; B is an unbounded reader of the same
	// directory.
	a := openStore(t, dir, Options{MaxBytes: 2 * one})
	for i := 0; i < 2; i++ {
		if err := a.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	b := openStore(t, dir, Options{})
	if b.Len() != 2 {
		t.Fatalf("reader indexed %d entries, want 2", b.Len())
	}

	// Age both entries, 0 the older; A's next two Puts evict them in that
	// order. B still has them indexed.
	old := time.Now().Add(-time.Hour)
	for i := 0; i < 2; i++ {
		mt := old.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(a.keyPath(testKey(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < 4; i++ {
		if err := a.Put(testKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.Stats(); st.Evictions != 2 {
		t.Fatalf("aged entries not evicted: %+v", st)
	}

	// B's Get of an evicted entry: clean miss, no quarantine, index healed.
	if _, err := b.Get(testKey(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(evicted) = %v, want ErrNotFound", err)
	}
	if _, err := b.Get(testKey(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(evicted) = %v, want ErrNotFound", err)
	}
	st := b.Stats()
	if st.Corrupt != 0 {
		t.Fatalf("cross-process eviction quarantined entries: %+v", st)
	}
	// B indexed entries 0 and 1 at Open (2 and 3 landed later); both
	// phantom rows must now be gone.
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("reader index did not self-heal: %+v", st)
	}
	if q := quarantined(t, dir); q != 0 {
		t.Fatalf("%d files in quarantine, want 0", q)
	}
	// No eviction leftovers: the rename-aside temp file must be gone.
	err := filepath.WalkDir(filepath.Join(dir, objectsDir), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), tmpPrefix) {
			t.Errorf("eviction left temp file %s", d.Name())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGetInjectedReadFaults covers the read-side fault hooks the
// flow-cache degradation tests build on: an injected read error degrades
// to a miss without touching the (healthy) entry; injected flipped bits
// fail digest verification and quarantine the entry.
func TestGetInjectedReadFaults(t *testing.T) {
	dir := t.TempDir()
	script := faults.NewDiskScript(map[faults.DiskKey]faults.DiskFault{
		{Op: faults.DiskOpRead, N: 1}: faults.DiskReadError,
		{Op: faults.DiskOpRead, N: 3}: faults.DiskBitFlip,
	})
	s := openStore(t, dir, Options{Faults: script})
	key, payload := testKey(0), []byte("read-fault fodder")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); err != nil { // read #0: clean
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) { // read #1: EIO → miss
		t.Fatalf("Get under read error = %v, want ErrNotFound", err)
	}
	if q := quarantined(t, dir); q != 0 {
		t.Fatalf("read error quarantined a healthy entry (%d files)", q)
	}
	if _, err := s.Get(key); err != nil { // read #2: clean again
		t.Fatalf("entry gone after transient read error: %v", err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) { // read #3: bit flip
		t.Fatalf("Get under bit flip = %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("bit-flipped read not quarantined: %+v", st)
	}
	if q := quarantined(t, dir); q != 1 {
		t.Fatalf("%d files in quarantine, want 1", q)
	}
}

// TestWriteFileAtomic: the file is replaced whole with mode 0644, no temp
// file is left beside it, and a write into a missing directory fails.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := os.WriteFile(path, []byte("old contents, longer than the new"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("file holds %q, want %q", got, "new")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", fi.Mode().Perm())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in the directory, want only the file", len(entries))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
