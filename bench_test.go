// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates its artifact from
// scratch through the full simulated flow and reports paper-facing figures
// as custom metrics, so
//
//	go test -bench=. -benchmem -benchtime=1x
//
// reproduces the entire evaluation. The rendered tables print once per run
// (first iteration) so the output doubles as the experiment log.
package repro

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/flowcache"
	"repro/internal/obs"
	"repro/internal/store"
)

func benchCfg() experiments.Config {
	return experiments.DefaultConfig()
}

// printOnce deduplicates table printing across benchmark iterations.
var printOnce sync.Map

func printArtifact(b *testing.B, key, text string) {
	b.StopTimer()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
	b.StartTimer()
}

// BenchmarkTableI regenerates Table I: Face Detection with vs without
// directives.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MaxCongPct, "withDir-maxCong%")
		b.ReportMetric(res.Rows[1].MaxCongPct, "noDir-maxCong%")
		b.ReportMetric(res.Rows[0].FmaxMHz, "withDir-Fmax-MHz")
		printArtifact(b, "table1", res.Format())
	}
}

// BenchmarkFigure1 regenerates Fig. 1: the two congestion maps.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printArtifact(b, "fig1", res.Format())
	}
}

// BenchmarkTableIII regenerates Table III: the benchmark property summary.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Max[2], "maxVert%")
		b.ReportMetric(res.Avg[4], "avgVH%")
		b.ReportMetric(float64(res.Samples), "samples")
		printArtifact(b, "table3", res.Format())
	}
}

// BenchmarkTableIV regenerates the headline Table IV: estimation accuracy
// of the three models with and without marginal-operation filtering.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIV(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Filtered && r.Kind.String() == "GBRT" {
				b.ReportMetric(r.Acc[dataset.Vertical].MAE, "GBRT-V-MAE%")
				b.ReportMetric(r.Acc[dataset.Vertical].MedAE, "GBRT-V-MedAE%")
				b.ReportMetric(r.Acc[dataset.Horizontal].MAE, "GBRT-H-MAE%")
			}
		}
		printArtifact(b, "table4", res.Format())
	}
}

// BenchmarkTableV regenerates Table V: important feature categories.
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableV(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printArtifact(b, "table5", res.Format())
	}
}

// BenchmarkTableVI regenerates Table VI: the Face Detection case study.
func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableVI(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].CongestedCLBs), "baseline-congCLBs")
		b.ReportMetric(float64(res.Rows[2].CongestedCLBs), "replication-congCLBs")
		b.ReportMetric(res.Rows[2].FmaxMHz, "replication-Fmax-MHz")
		printArtifact(b, "table6", res.Format())
	}
}

// BenchmarkFigure5 regenerates Fig. 5: the radial distribution of vertical
// congestion.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CenterMean, "center-mean%")
		b.ReportMetric(res.MarginMean, "margin-mean%")
		printArtifact(b, "fig5", res.Format())
	}
}

// BenchmarkFigure6 regenerates Fig. 6: per-step congestion maps of the
// case study.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printArtifact(b, "fig6", res.Format())
	}
}

// BenchmarkAblationCategories knocks out one feature category at a time
// and reports the accuracy cost — the interventional counterpart of
// Table V.
func BenchmarkAblationCategories(b *testing.B) {
	cfg := benchCfg()
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateCategories(cfg, ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Baseline, "baseline-MAE%")
		printArtifact(b, "ablate-cat", res.Format())
	}
}

// BenchmarkAblationFilterThreshold sweeps the marginal-filter deviation
// threshold (Sec. III-C1's design knob).
func BenchmarkAblationFilterThreshold(b *testing.B) {
	cfg := benchCfg()
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiments.SweepFilterThreshold(cfg, ds, []float64{0, 0.5, 0.75, 0.9, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		printArtifact(b, "ablate-filter", experiments.FormatFilterSweep(points))
	}
}

// BenchmarkAblationLabelAveraging rebuilds the dataset with 1..3 placement
// runs per label, quantifying the expected-congestion substitution
// DESIGN.md documents.
func BenchmarkAblationLabelAveraging(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblateLabelAveraging(cfg, []int{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].MAE, "runs1-MAE%")
		b.ReportMetric(points[len(points)-1].MAE, "runs3-MAE%")
		printArtifact(b, "ablate-runs", experiments.FormatLabelRuns(points))
	}
}

// BenchmarkTuning runs the paper-style grid search with cross-validation
// for each model family.
func BenchmarkTuning(b *testing.B) {
	cfg := benchCfg()
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var all []*experiments.TuningResult
		for _, kind := range []core.ModelKind{core.Linear, core.GBRT} { // ANN CV is hours in pure Go
			r, err := experiments.Tuning(cfg, ds, kind)
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, r)
		}
		printArtifact(b, "tuning", experiments.FormatTuning(all))
	}
}

// BenchmarkGeneralization measures leave-one-design-out accuracy — the
// cost of predicting a design family the model never saw, quantifying the
// paper's advice to enrich the dataset with the target design.
func BenchmarkGeneralization(b *testing.B) {
	cfg := benchCfg()
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Generalization(cfg, ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RandomSplit[dataset.Average].MAE, "randomsplit-MAE%")
		if len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].Acc[dataset.Average].MAE, "heldout0-MAE%")
		}
		printArtifact(b, "generalize", res.Format())
	}
}

// BenchmarkHotspotDetection scores the paper's actual use case: does the
// predictor, from HLS information only, rank the same source lines hottest
// as a real place-and-route does?
func BenchmarkHotspotDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.HotspotDetection(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Spearman, "spearman")
		if p, ok := res.PrecisionAtK[5]; ok {
			b.ReportMetric(p, "precision@5")
		}
		printArtifact(b, "hotspots", res.Format())
	}
}

// BenchmarkBuildDataset measures the end-to-end training-dataset build —
// the hot loop the parallel execution layer targets — at several worker
// counts. Workers=1 is the sequential baseline; parallel builds produce
// byte-identical output (core's determinism test), so the sub-benchmark
// times are directly comparable. On a single-CPU host all worker counts
// collapse to sequential throughput. The end-to-end training figures
// (dataset build plus fit, with the CPU count) come from
// `bash perfbench/run.sh` (workload train).
func BenchmarkBuildDataset(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mods := bench.TrainingModules()
				_, _, _, err := core.BuildDatasetContext(context.Background(), mods,
					flow.DefaultConfig(), core.BuildOptions{LabelRuns: 2, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildDatasetObserved is BenchmarkBuildDataset/workers=2 with a
// live observer (tracer + metrics registry) attached — the worst-case
// observation cost, since every flow stage, module cell and cache lookup
// records spans and metrics. The ratio to the unobserved workers=2 time is
// the enabled-observer overhead; the disabled path (plain
// BenchmarkBuildDataset, nil observer) is the baseline it compares to.
func BenchmarkBuildDatasetObserved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mods := bench.TrainingModules()
		cfg := flow.DefaultConfig()
		cfg.Obs = obs.New()
		_, _, _, err := core.BuildDatasetContext(context.Background(), mods,
			cfg, core.BuildOptions{LabelRuns: 2, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cfg.Obs.Trace.Len()), "spans")
	}
}

// BenchmarkBuildDatasetWarmCache measures rebuilding the training dataset
// against a pre-populated flow cache — the steady state of experiment
// sweeps and ablations, where every (design, config, seed) implementation
// has already run once. Only back-tracing, graph building and feature
// extraction remain, so the ratio to BenchmarkBuildDataset/workers=1 is
// the speedup delivered by internal/flowcache. The warm build's output is
// byte-identical to a cold one (core's flow-cache determinism test).
func BenchmarkBuildDatasetWarmCache(b *testing.B) {
	cache := flowcache.New(0)
	cfg := flow.DefaultConfig()
	cfg.Cache = cache
	opts := core.BuildOptions{LabelRuns: 2, Workers: 1}
	// Prime the cache with one untimed cold build.
	if _, _, _, err := core.BuildDatasetContext(context.Background(), bench.TrainingModules(), cfg, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mods := bench.TrainingModules()
		_, _, _, err := core.BuildDatasetContext(context.Background(), mods, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := cache.Stats(); s.Hits == 0 {
		b.Fatal("warm rebuild never hit the cache; benchmark measured cold builds")
	}
}

// storeBuild runs one checkpointed training-dataset build against the
// persistent store at dir, with a fresh in-memory cache so the disk tier is
// the only carried-over state — exactly the cross-process resume scenario.
func storeBuild(b *testing.B, dir string) {
	b.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cache := flowcache.New(0)
	cache.AttachStore(s)
	cfg := flow.DefaultConfig()
	cfg.Cache = cache
	_, _, _, err = core.BuildDatasetContext(context.Background(), bench.TrainingModules(), cfg,
		core.BuildOptions{LabelRuns: 2, Workers: 1, Checkpoint: store.NewCheckpoint(s)})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBuildDatasetColdStore measures the training-dataset build while
// persisting every flow result and per-module checkpoint block to a fresh
// disk store — the first run of a crash-safe sweep. The ratio to plain
// BenchmarkBuildDataset/workers=1 is the durability overhead (encode +
// fsync + rename per artifact).
func BenchmarkBuildDatasetColdStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "congest-bench-store-")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		storeBuild(b, dir)
		b.StopTimer()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// BenchmarkBuildDatasetWarmStore measures the same build resumed against an
// already-populated store directory with a cold in-memory cache — the
// rerun-after-crash steady state. Every module restores from its checkpoint
// block (decode + verify, zero flow runs), so the ratio to ColdStore is the
// resume speedup the persistence layer delivers across process boundaries.
func BenchmarkBuildDatasetWarmStore(b *testing.B) {
	dir, err := os.MkdirTemp("", "congest-bench-store-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	storeBuild(b, dir) // prime the store with one untimed cold build
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		storeBuild(b, dir)
	}
	b.StopTimer()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if st := s.Stats(); st.Entries == 0 {
		b.Fatal("store is empty after warm rebuilds; benchmark measured cold builds")
	}
}

// BenchmarkFullFlowFaceDetection measures the simulated C-to-FPGA flow on
// the largest training design — the operation the paper's predictor lets a
// designer skip.
func BenchmarkFullFlowFaceDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := bench.FaceDetection(bench.WithDirectives())
		if _, err := flow.Run(m, flow.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictionOnly measures the HLS-side prediction path (schedule,
// bind, features, model inference) — what replaces the full flow at design
// time.
func BenchmarkPredictionOnly(b *testing.B) {
	ds, _, err := core.BuildDataset(bench.TrainingModules(), flow.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pred, err := core.Train(ds, core.TrainOptions{Kind: core.GBRT, Filter: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := bench.FaceDetection(bench.NotInline())
		if _, err := pred.PredictModule(m, flow.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
