package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flow"
	"repro/internal/flowcache"
	"repro/internal/store"
)

// openTestStore opens the artifact store at dir, failing the test on error.
func openTestStore(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	s, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// diskTierBuild runs one resilient build of the tiny module set through a
// fresh in-memory flow cache whose disk tier is s. The store is the only
// state one build hands the next, exactly as between two processes.
func diskTierBuild(t *testing.T, s *store.Store, workers int) (*dataset.Dataset, []*flow.Result, *BuildSummary) {
	t.Helper()
	cfg := quickFlow()
	cache := flowcache.New(0)
	cache.AttachStore(s)
	cfg.Cache = cache
	ds, results, sum, err := BuildDatasetContext(context.Background(), tinyModules(), cfg, BuildOptions{
		LabelRuns: 2,
		Retry:     flow.RetryPolicy{MaxAttempts: 2, SeedStride: 104729},
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, results, sum
}

// TestBuildDatasetCheckpointResume is the resume contract of the flow
// cache's disk tier, the build's one checkpoint: a cold build stores one
// entry per flow run, a rebuild in a fresh process (new store handle and
// new memory cache on the same directory) serves every flow run from disk
// and recomputes none, and losing one entry recomputes exactly that run.
// Every dataset is byte-identical to a build without a store.
func TestBuildDatasetCheckpointResume(t *testing.T) {
	dsRef, _, _ := cacheBuild(t, nil, 1)
	ref := store.EncodeDataset(dsRef)
	dir := t.TempDir()

	sCold := openTestStore(t, dir, store.Options{})
	dsCold, _, sumCold := diskTierBuild(t, sCold, 1)
	if st := sCold.Stats(); st.Hits != 0 || int(st.Puts) != sumCold.FlowRuns || sCold.Len() != sumCold.FlowRuns {
		t.Fatalf("cold build of %d flow runs: %v", sumCold.FlowRuns, st)
	}
	if !bytes.Equal(ref, store.EncodeDataset(dsCold)) {
		t.Fatal("store-backed build is not byte-identical to the reference")
	}

	sWarm := openTestStore(t, dir, store.Options{})
	dsWarm, resWarm, sumWarm := diskTierBuild(t, sWarm, 1)
	if st := sWarm.Stats(); int(st.Hits) != sumCold.FlowRuns || st.Puts != 0 {
		t.Fatalf("warm rebuild of %d flow runs recomputed some: %v", sumCold.FlowRuns, st)
	}
	if sumWarm.FlowRuns != sumCold.FlowRuns || sumWarm.Succeeded != sumCold.Succeeded {
		t.Fatalf("warm summary %+v differs from cold %+v", sumWarm, sumCold)
	}
	if !bytes.Equal(ref, store.EncodeDataset(dsWarm)) {
		t.Fatal("resumed dataset is not byte-identical to the reference")
	}
	for i, r := range resWarm {
		if err := store.VerifyResultKey(r, flow.CacheKey(r.Mod, r.Config)); err != nil {
			t.Fatalf("restored result %d fails verification: %v", i, err)
		}
	}

	// Partial resume: quarantine the first module's run-0 entry. Only
	// that flow runs again (one put), and the output is still identical.
	key := flow.CacheKey(tinyModules()[0], CellConfig(quickFlow(), 0))
	sWarm.Corrupt(key, fmt.Errorf("test-injected corruption"))
	if st := sWarm.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupting the first module's run-0 entry quarantined %d entries, want 1", st.Corrupt)
	}
	sPart := openTestStore(t, dir, store.Options{})
	dsPart, _, _ := diskTierBuild(t, sPart, 1)
	if st := sPart.Stats(); st.Puts != 1 || int(st.Hits) != sumCold.FlowRuns-1 {
		t.Fatalf("partial resume: %v, want 1 put and %d hits", st, sumCold.FlowRuns-1)
	}
	if !bytes.Equal(ref, store.EncodeDataset(dsPart)) {
		t.Fatal("partially resumed dataset is not byte-identical to the reference")
	}
}

// TestBuildDatasetCheckpointParallel shares the disk tier across a
// parallel build's workers: the cold and the warm build both match the
// sequential reference, and the warm one recomputes nothing.
func TestBuildDatasetCheckpointParallel(t *testing.T) {
	dsRef, _, _ := cacheBuild(t, nil, 1)
	ref := store.EncodeDataset(dsRef)
	dir := t.TempDir()
	dsA, _, sumA := diskTierBuild(t, openTestStore(t, dir, store.Options{}), 8)
	if !bytes.Equal(ref, store.EncodeDataset(dsA)) {
		t.Fatal("parallel store-backed build differs from the sequential reference")
	}
	sB := openTestStore(t, dir, store.Options{})
	dsB, _, _ := diskTierBuild(t, sB, 8)
	if st := sB.Stats(); int(st.Hits) != sumA.FlowRuns || st.Puts != 0 {
		t.Errorf("parallel warm rebuild of %d flow runs recomputed some: %v", sumA.FlowRuns, st)
	}
	if !bytes.Equal(ref, store.EncodeDataset(dsB)) {
		t.Fatal("parallel resumed build differs from the sequential reference")
	}
}
