package core

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/flow"
)

// buildWith runs one resilient build of the tiny module set with the given
// worker count, with one module failing deterministically so the error
// path is part of the comparison.
func buildWith(t *testing.T, workers int, inject bool) (*dataset.Dataset, []*flow.Result, *BuildSummary, error) {
	t.Helper()
	mods := tinyModules()
	cfg := quickFlow()
	if inject {
		cfg.Faults = faults.ForDesign(mods[0].Name,
			faults.FailFirst(flow.StageRoute, 99, flow.ErrUnroutable))
	}
	opts := BuildOptions{
		LabelRuns: 2,
		Retry:     flow.RetryPolicy{MaxAttempts: 2, SeedStride: 104729},
		Workers:   workers,
	}
	return BuildDatasetContext(context.Background(), mods, cfg, opts)
}

// assertSameBuild asserts two builds are byte-identical: every sample's
// features and labels, the summary counts, and the joined error text.
func assertSameBuild(t *testing.T, tag string,
	dsA *dataset.Dataset, resA []*flow.Result, sumA *BuildSummary, errA error,
	dsB *dataset.Dataset, resB []*flow.Result, sumB *BuildSummary, errB error) {
	t.Helper()
	if dsA.Len() != dsB.Len() {
		t.Fatalf("%s: sample counts differ: %d vs %d", tag, dsA.Len(), dsB.Len())
	}
	for i := range dsA.Samples {
		a, b := dsA.Samples[i], dsB.Samples[i]
		if a.Design != b.Design || a.OpID != b.OpID || a.Kind != b.Kind {
			t.Fatalf("%s: row %d identity differs: %s/%d vs %s/%d", tag, i, a.Design, a.OpID, b.Design, b.OpID)
		}
		if a.VertPct != b.VertPct || a.HorizPct != b.HorizPct || a.AvgPct != b.AvgPct {
			t.Fatalf("%s: row %d labels differ: (%v %v %v) vs (%v %v %v)",
				tag, i, a.VertPct, a.HorizPct, a.AvgPct, b.VertPct, b.HorizPct, b.AvgPct)
		}
		if a.Margin != b.Margin || a.Replica != b.Replica || a.ReplicaRoot != b.ReplicaRoot {
			t.Fatalf("%s: row %d flags differ", tag, i)
		}
		if len(a.Features) != len(b.Features) {
			t.Fatalf("%s: row %d feature widths differ", tag, i)
		}
		for j := range a.Features {
			if a.Features[j] != b.Features[j] {
				t.Fatalf("%s: row %d feature %d differs: %v vs %v", tag, i, j, a.Features[j], b.Features[j])
			}
		}
	}
	if len(resA) != len(resB) {
		t.Fatalf("%s: result counts differ: %d vs %d", tag, len(resA), len(resB))
	}
	for i := range resA {
		if resA[i].Mod.Name != resB[i].Mod.Name || resA[i].Config.Seed != resB[i].Config.Seed ||
			resA[i].Config.Attempt != resB[i].Config.Attempt {
			t.Fatalf("%s: result %d differs: %s seed=%d vs %s seed=%d", tag, i,
				resA[i].Mod.Name, resA[i].Config.Seed, resB[i].Mod.Name, resB[i].Config.Seed)
		}
	}
	if sumA.Modules != sumB.Modules || sumA.Succeeded != sumB.Succeeded ||
		sumA.FlowRuns != sumB.FlowRuns || len(sumA.Failed) != len(sumB.Failed) {
		t.Fatalf("%s: summaries differ: %+v vs %+v", tag, sumA, sumB)
	}
	if sumA.Format() != sumB.Format() {
		t.Fatalf("%s: summary text differs:\n%s\nvs\n%s", tag, sumA.Format(), sumB.Format())
	}
	textA, textB := "", ""
	if errA != nil {
		textA = errA.Error()
	}
	if errB != nil {
		textB = errB.Error()
	}
	if textA != textB {
		t.Fatalf("%s: joined error text differs:\n%q\nvs\n%q", tag, textA, textB)
	}
}

// TestBuildDatasetDeterministicAcrossWorkers is the reproduction
// contract of the parallel execution layer (acceptance criterion of the
// parallelism PR): a dataset built with Workers=8 is byte-identical to the
// sequential Workers=1 build — rows, labels, per-result seeds, summary
// counts and the joined error text — both on the clean path and with a
// module failing under fault injection.
func TestBuildDatasetDeterministicAcrossWorkers(t *testing.T) {
	for _, inject := range []bool{false, true} {
		tag := "clean"
		if inject {
			tag = "injected-failure"
		}
		dsSeq, resSeq, sumSeq, errSeq := buildWith(t, 1, inject)
		if inject && errSeq == nil {
			t.Fatalf("%s: injected failure produced no error", tag)
		}
		if !inject && errSeq != nil {
			t.Fatalf("%s: clean build failed: %v", tag, errSeq)
		}
		for _, workers := range []int{8, 0} {
			dsPar, resPar, sumPar, errPar := buildWith(t, workers, inject)
			assertSameBuild(t, tag, dsSeq, resSeq, sumSeq, errSeq, dsPar, resPar, sumPar, errPar)
		}
	}
}

// TestBuildDatasetParallelCancellation exercises the pool's cancellation
// path: a pre-cancelled context aborts the parallel build with
// context.Canceled before any flow run output is kept.
func TestBuildDatasetParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, results, sum, err := BuildDatasetContext(ctx, tinyModules(), quickFlow(),
		BuildOptions{LabelRuns: 2, Workers: 8})
	if err == nil || ctx.Err() == nil {
		t.Fatal("cancelled parallel build returned no error")
	}
	if len(results) != 0 || sum.Succeeded != 0 {
		t.Fatalf("cancelled build kept results: %d results, %+v", len(results), sum)
	}
}

// TestCellConfigSeedDerivation pins the per-run seed derivation the
// worker pool and perfbench's replay share: base + run*7919, everything
// else untouched.
func TestCellConfigSeedDerivation(t *testing.T) {
	cfg := quickFlow()
	cfg.Seed = 42
	for run := 0; run < 4; run++ {
		rc := CellConfig(cfg, run)
		if want := int64(42 + run*7919); rc.Seed != want {
			t.Fatalf("run %d: seed %d, want %d", run, rc.Seed, want)
		}
		rc.Seed = cfg.Seed
		if rc != cfg {
			t.Fatalf("run %d: CellConfig changed fields other than Seed", run)
		}
	}
}
