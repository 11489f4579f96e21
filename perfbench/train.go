package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/backtrace"
	"repro/internal/bench"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rtl"
	"repro/internal/timing"
)

// train: the paper's training phase. A run builds the paper dataset
// (core.BuildDatasetContext over bench.TrainingModules) at least three
// times and for three quarters of the run, then fits the filtered GBRT
// predictor (core.Train) once on it. The operation of p50_ms and tail_ms
// is one dataset build; ops_per_s is dataset samples fitted per second.
// The fit is indivisible, so a train run lasts longer than --seconds.
// Nothing collects the heap between builds: each build and the fit pay for
// the garbage collection their allocation causes.

// minBuilds is the fewest dataset builds a train run measures.
const minBuilds = 3

func runTrain(o options) (*outcome, error) {
	pn, err := loadPins(o.dir)
	if err != nil {
		return nil, err
	}
	mods, setupS, err := timeSetup(25, func() ([]*ir.Module, error) { return bench.TrainingModules(), nil }, func([]*ir.Module) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true, values: map[string]float64{"setup_s": setupS}}
	cfg := trainConfig(o.seed)
	if o.trace {
		traceTrain(out, pn, o.seed, mods, cfg)
		return out, nil
	}

	ctx := context.Background()
	cells := int64(len(mods) * buildOpts.LabelRuns)
	var builds []float64
	var ds *dataset.Dataset
	firstSHA := ""
	start := time.Now()
	budget := time.Duration(o.seconds * 3 / 4 * float64(time.Second))
	for len(builds) < minBuilds || time.Since(start) < budget {
		t0 := time.Now()
		d, _, summary, err := core.BuildDatasetContext(ctx, mods, cfg, buildOpts)
		dt := time.Since(t0)
		out.attempted += cells
		if err != nil {
			out.failed += cells - int64(summary.FlowRuns)
			out.correct = checkf("dataset build: %v", err)
			return out, nil
		}
		builds = append(builds, ms(dt))
		ds = d
		sha := datasetSHA(d)
		if firstSHA == "" {
			firstSHA = sha
		}
		checkDataset(out, pn, o.seed, d.Len(), sha, firstSHA)
	}

	out.attempted++
	t0 := time.Now()
	pred, err := core.Train(ds, trainOpts)
	fit := time.Since(t0)
	if err != nil {
		out.failed++
		out.correct = checkf("training: %v", err)
		return out, nil
	}
	art, err := predictorBytes(pred)
	if err != nil {
		return nil, err
	}
	checkPredictor(out, pn, o.seed, art)

	out.values["p50_ms"] = median(builds)
	out.values["tail_ms"] = percentile(builds, tailQuantile)
	out.values["ops_per_s"] = ratio(float64(ds.Len()), fit.Seconds())
	return out, nil
}

// checkDataset checks one dataset build: the pinned sample count always,
// and its sha256 against the pin at the default seed, or against the run's
// first build at any other seed.
func checkDataset(out *outcome, pn *pins, seed int64, samples int, sha, firstSHA string) {
	if samples != pn.Samples {
		out.correct = checkf("dataset has %d samples, pinned %d; %s", samples, pn.Samples, repinHint)
	}
	want := firstSHA
	if seed == defaultSeed {
		want = pn.DatasetSHA256
	}
	if sha != want {
		out.correct = checkf("dataset sha256 %s, want %s; %s", sha, want, repinHint)
	}
}

// checkPredictor checks the saved predictor against the kept artifact's
// pin; only the default seed's dataset trains that artifact.
func checkPredictor(out *outcome, pn *pins, seed int64, art []byte) {
	if seed != defaultSeed {
		return
	}
	if got := sha256Hex(art); got != pn.PredictorSHA256 {
		out.correct = checkf("trained predictor sha256 %s, pinned %s; %s", got, pn.PredictorSHA256, repinHint)
	}
}

// traceTrain is the traced train run. It makes the real calls once,
// untraced (core.BuildDatasetContext, core.Train), then replays both stage
// by stage with a span per layer:
//
//   - cells: every (module, label-run) flow cell, on the same worker pool
//     size as the build, calling schedule, bind, elaborate, place, route
//     and timing in flow.RunContext's order with core.CellConfig seeds and
//     the build's retry escalation, then backtrace.Trace;
//   - assemble: label averaging, graph.Build and feature extraction
//     (dataset.FromTrace) per module, as the build's reduce does;
//   - fit: core.Train's scaler and one GBRT fit per target.
//
// The replayed dataset and predictor must equal the real ones byte for
// byte, and every replayed cell's routing map must equal the map
// flow.RunContext produces for that cell. Layer times are per training, in
// wall time: they add up to trace.traced_ms, the replay's build plus fit
// time; trace.untraced_ms is the real calls' build plus fit time, and
// trace.untraced_cpu_ms the CPU time the process spent on them, which
// tells time busy from time spent waiting.
func traceTrain(out *outcome, pn *pins, seed int64, mods []*ir.Module, cfg flow.Config) {
	ctx := context.Background()
	cells := int64(len(mods) * buildOpts.LabelRuns)

	out.attempted += cells + 1
	t0, c0 := time.Now(), cpuTime()
	dsRef, _, summary, err := core.BuildDatasetContext(ctx, mods, cfg, buildOpts)
	refBuild := time.Since(t0)
	if err != nil {
		out.failed += cells - int64(summary.FlowRuns) + 1
		out.correct = checkf("dataset build: %v", err)
		return
	}
	t0 = time.Now()
	predRef, err := core.Train(dsRef, trainOpts)
	refFit := time.Since(t0)
	out.values["trace.untraced_cpu_ms"] = ms(cpuTime() - c0)
	if err != nil {
		out.failed++
		out.correct = checkf("training: %v", err)
		return
	}
	refArt, err := predictorBytes(predRef)
	if err != nil {
		out.correct = checkf("saving predictor: %v", err)
		return
	}
	refSHA := datasetSHA(dsRef)
	checkDataset(out, pn, seed, dsRef.Len(), refSHA, refSHA)
	checkPredictor(out, pn, seed, refArt)

	layers := map[string]float64{}
	out.attempted += cells + 1
	rec := newRecorder()
	runs := replayCells(ctx, rec, mods, cfg)
	wall := rec.finish()
	rec.attribute(layers)

	rec = newRecorder()
	ds := replayAssemble(rec, mods, cfg, runs)
	wall += rec.finish()
	rec.attribute(layers)

	rec = newRecorder()
	scaler, models, err := replayTrain(rec, ds)
	wall += rec.finish()
	rec.attribute(layers)
	var art []byte
	if err == nil {
		art, err = savePredictor(scaler, models)
	}

	for _, r := range runs {
		if r.err != nil {
			out.failed++
		}
	}
	if err != nil {
		out.failed++
		out.correct = checkf("replayed training: %v", err)
	}
	if datasetSHA(ds) != refSHA {
		out.correct = checkf("replayed dataset differs from core.BuildDatasetContext's")
	}
	if !bytes.Equal(art, refArt) {
		out.correct = checkf("replayed predictor differs from core.Train's")
	}
	out.attempted += checkCells(ctx, out, mods, runs)

	for name, v := range layers {
		out.values[name] = v
	}
	var moves, accepted int
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		moves += r.res.Placement.Stats.Moves
		accepted += r.res.Placement.Stats.Accepted
		out.values["route.iterations"] += float64(r.res.Routing.Iterations)
		out.values["route.overflow"] += float64(r.res.Routing.Overflow)
	}
	out.values["place.moves"] = float64(moves)
	if moves > 0 {
		out.values["place.accept_rate"] = float64(accepted) / float64(moves)
	}
	out.values["dataset.samples"] = float64(ds.Len())
	setOverhead(out.values, ms(wall), ms(refBuild+refFit))
}

// cellRun is one replayed (module, label-run) cell.
type cellRun struct {
	module int
	res    *flow.Result
	traced []backtrace.OpCongestion
	err    error
}

// replayCells replays the build's cell grid, module-major like
// core.BuildDatasetContext, on a pool of the build's size.
func replayCells(ctx context.Context, rec *recorder, mods []*ir.Module, cfg flow.Config) []cellRun {
	labelRuns := buildOpts.LabelRuns
	runs := make([]cellRun, len(mods)*labelRuns)
	err := parallel.ForEach(ctx, len(runs), buildOpts.Workers, func(ctx context.Context, k int) {
		mi, run := k/labelRuns, k%labelRuns
		runs[k] = replayCell(ctx, rec, mods[mi], core.CellConfig(cfg, run))
		runs[k].module = mi
	})
	if err != nil {
		for k := range runs {
			if runs[k].res == nil && runs[k].err == nil {
				runs[k].err = err
			}
		}
	}
	return runs
}

// replayCell is flow.RunWithRetry under the build's retry policy, with
// each attempt replayed stage by stage, followed by backtrace.Trace.
func replayCell(ctx context.Context, rec *recorder, m *ir.Module, cfg flow.Config) cellRun {
	pol := buildOpts.Retry
	var last error
	for attempt := 0; attempt < pol.Attempts(); attempt++ {
		res, err := replayFlow(ctx, rec, m, pol.Escalate(cfg, attempt))
		if err == nil {
			var tr []backtrace.OpCongestion
			rec.do("backtrace.ms", func() { tr = backtrace.Trace(res) })
			return cellRun{res: res, traced: tr}
		}
		last = err
		if ctx.Err() != nil {
			break
		}
	}
	return cellRun{err: last}
}

// replayFlow makes flow.RunContext's stage calls in its order, without a
// flow cache or fault injector, and assembles the same Result.
func replayFlow(ctx context.Context, rec *recorder, m *ir.Module, cfg flow.Config) (*flow.Result, error) {
	var sched *hls.Schedule
	var err error
	rec.do("hls.schedule_ms", func() { sched, err = hls.ScheduleModule(m, cfg.Clock) })
	if err != nil {
		return nil, err
	}
	var bind *hls.Binding
	rec.do("hls.bind_ms", func() { bind = hls.BindModule(sched) })
	var nl *rtl.Netlist
	rec.do("rtl.elaborate_ms", func() { nl = rtl.Elaborate(bind) })
	rng := rand.New(rand.NewSource(cfg.Seed))
	var pl *place.Placement
	rec.do("place.ms", func() { pl, err = place.PlaceContext(ctx, nl, cfg.Dev, rng, cfg.Place) })
	if err != nil {
		return nil, err
	}
	var rr *route.Result
	rec.do("route.ms", func() { rr, err = route.RouteContext(ctx, pl, rng, cfg.Route) })
	if err != nil {
		return nil, err
	}
	if cfg.StrictConvergence && rr.Overflow != 0 {
		return nil, fmt.Errorf("%w: %d overused crossings", flow.ErrUnroutable, rr.Overflow)
	}
	var rep *timing.Report
	rec.do("timing.ms", func() { rep = timing.Analyze(sched, nl, rr, cfg.Timing) })
	return &flow.Result{
		Mod: m, Config: cfg, Sched: sched, Bind: bind, Netlist: nl,
		Placement: pl, Routing: rr, Timing: rep,
		Convergence: flow.Convergence{Converged: rr.Overflow == 0, OverusedEdges: rr.Overflow, Iterations: rr.Iterations},
	}, nil
}

// replayAssemble is the build's sequential reduce: average each module's
// label runs, then build its graph and extract its samples. A module with
// a failed cell is skipped, as the build skips it.
func replayAssemble(rec *recorder, mods []*ir.Module, cfg flow.Config, runs []cellRun) *dataset.Dataset {
	labelRuns := buildOpts.LabelRuns
	ds := dataset.New()
	for mi, m := range mods {
		traced, first, err := averageRuns(runs[mi*labelRuns : (mi+1)*labelRuns])
		if err != nil {
			continue
		}
		var g *graph.Graph
		rec.do("graph.build_ms", func() { g = graph.Build(first.Mod, first.Bind) })
		rec.do("features.extract_ms", func() {
			ex := features.NewExtractor(first.Mod, first.Sched, first.Bind, g, cfg.Dev)
			ds.FromTrace(m.Name, traced, ex)
		})
	}
	return ds
}

// averageRuns folds one module's label runs into the averaged trace with
// the build's float operation order: sums in run order, then one multiply
// by 1/runs; an op is marginal when at least half the runs put it there.
func averageRuns(runs []cellRun) ([]backtrace.OpCongestion, *flow.Result, error) {
	var traced []backtrace.OpCongestion
	var first *flow.Result
	var votes []int
	for run, c := range runs {
		if c.err != nil {
			return nil, nil, c.err
		}
		tr := c.traced
		if run == 0 {
			first, traced = c.res, tr
			votes = make([]int, len(tr))
			for i := range tr {
				if tr[i].Margin {
					votes[i]++
				}
			}
			continue
		}
		if len(tr) != len(traced) {
			return nil, nil, fmt.Errorf("trace size changed across seeds (%d vs %d)", len(tr), len(traced))
		}
		for i := range traced {
			traced[i].VertPct += tr[i].VertPct
			traced[i].HorizPct += tr[i].HorizPct
			traced[i].AvgPct += tr[i].AvgPct
			if tr[i].Margin {
				votes[i]++
			}
		}
	}
	inv := 1.0 / float64(len(runs))
	for i := range traced {
		traced[i].VertPct *= inv
		traced[i].HorizPct *= inv
		traced[i].AvgPct *= inv
		traced[i].Margin = 2*votes[i] >= len(runs)
	}
	return traced, first, nil
}

// targetSpan names each target's GBRT fit span.
var targetSpan = map[dataset.Target]string{
	dataset.Vertical:   "gbrt.fit_ms.V",
	dataset.Horizontal: "gbrt.fit_ms.H",
	dataset.Average:    "gbrt.fit_ms.Avg",
}

// replayTrain is core.Train with its scaler and each target's fit in a
// span. It returns the fitted scaler and one model per target.
func replayTrain(rec *recorder, ds *dataset.Dataset) (*ml.Scaler, map[dataset.Target]ml.Regressor, error) {
	if ds.Len() == 0 {
		return nil, nil, fmt.Errorf("train on empty dataset")
	}
	if trainOpts.Filter {
		ds, _ = ds.FilterMarginal()
	}
	X, _ := ds.Matrix(dataset.Vertical)
	var scaler *ml.Scaler
	var Xs [][]float64
	rec.do("ml.scaler_ms", func() {
		scaler = ml.FitScaler(X)
		var xm ml.Matrix
		scaler.TransformRowsInto(&xm, X)
		Xs = xm.RowViews(nil)
	})
	models := map[dataset.Target]ml.Regressor{}
	for _, t := range dataset.Targets {
		_, y := ds.Matrix(t)
		m := core.NewModelSized(trainOpts.Kind, trainOpts.Seed, trainOpts.Size)
		var err error
		rec.do(targetSpan[t], func() { err = m.Fit(Xs, y) })
		if err != nil {
			return nil, nil, fmt.Errorf("fit %s: %w", t, err)
		}
		models[t] = m
	}
	return scaler, models, nil
}

// savePredictor writes a scaler and per-target models the way
// core.Predictor.Save writes a trained predictor.
func savePredictor(scaler *ml.Scaler, models map[dataset.Target]ml.Regressor) ([]byte, error) {
	saved := struct {
		Kind        core.ModelKind             `json:"kind"`
		NumFeatures int                        `json:"num_features"`
		Scaler      *ml.Scaler                 `json:"scaler"`
		Models      map[string]json.RawMessage `json:"models"`
	}{trainOpts.Kind, features.NumFeatures, scaler, map[string]json.RawMessage{}}
	for t, m := range models {
		raw, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		saved.Models[t.String()] = raw
	}
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(saved)
	return b.Bytes(), err
}

// checkCells reruns every replayed cell through flow.RunContext with the
// configuration its replay succeeded under and checks that the routing maps
// are bit-identical. It returns the number of flow runs it made.
func checkCells(ctx context.Context, out *outcome, mods []*ir.Module, runs []cellRun) int64 {
	var mu sync.Mutex
	var n int64
	parallel.ForEach(ctx, len(runs), buildOpts.Workers, func(ctx context.Context, k int) {
		r := runs[k]
		if r.err != nil {
			return
		}
		ref, err := flow.RunContext(ctx, mods[r.module], r.res.Config)
		mu.Lock()
		defer mu.Unlock()
		n++
		switch {
		case err != nil:
			out.failed++
			out.correct = checkf("flow.RunContext on cell %d: %v", k, err)
		case !sameMap(ref.Routing.Map, r.res.Routing.Map):
			out.correct = checkf("replayed cell %d routing map differs from flow.RunContext's", k)
		}
	})
	return n
}

func sameMap(a, b *congestion.Map) bool {
	same := func(x, y [][]float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if len(x[i]) != len(y[i]) {
				return false
			}
			for j := range x[i] {
				if math.Float64bits(x[i][j]) != math.Float64bits(y[i][j]) {
					return false
				}
			}
		}
		return true
	}
	return same(a.V, b.V) && same(a.H, b.H)
}
