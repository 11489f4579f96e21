// Package core ties the whole reproduction together: it is the paper's
// primary contribution as a library. The pipeline runs training designs
// through the synthetic C-to-FPGA flow once, back-traces per-CLB congestion
// onto IR operations, extracts the 302 features, trains the regression
// models (Lasso / ANN / GBRT), and then predicts routing congestion for new
// designs *without* running placement and routing — locating the congested
// regions of the source code during HLS.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/backtrace"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/ml"
	"repro/internal/ml/ann"
	"repro/internal/ml/gbrt"
	"repro/internal/ml/lasso"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ModelKind selects one of the paper's three regression models.
type ModelKind int

const (
	// Linear is the Lasso linear model.
	Linear ModelKind = iota
	// ANN is the multilayer-perceptron regressor.
	ANN
	// GBRT is the gradient-boosted regression tree ensemble, the paper's
	// best model.
	GBRT
)

func (k ModelKind) String() string {
	switch k {
	case Linear:
		return "Linear"
	case ANN:
		return "ANN"
	case GBRT:
		return "GBRT"
	}
	return "?"
}

// ModelKinds lists the three models in Table IV order.
var ModelKinds = []ModelKind{Linear, ANN, GBRT}

// ModelSize selects the effort level of a model build: SizeFull is the
// published configuration, SizeQuick a shrunken variant for unit tests.
type ModelSize int

const (
	// SizeFull is the grid-search-tuned configuration the tables use.
	SizeFull ModelSize = iota
	// SizeQuick trades accuracy for speed (tests, smoke runs).
	SizeQuick
)

// NewModel builds a fresh regressor of the given kind with the tuned
// hyperparameters the experiments use (the values a grid search with
// 10-fold cross-validation selects; see ml.GridSearchCV for the machinery).
func NewModel(kind ModelKind, seed int64) ml.Regressor {
	return NewModelSized(kind, seed, SizeFull)
}

// NewModelSized builds a regressor at the requested effort level.
func NewModelSized(kind ModelKind, seed int64, size ModelSize) ml.Regressor {
	switch kind {
	case Linear:
		m := lasso.New(0.01)
		if size == SizeQuick {
			m.MaxIter = 100
		}
		return m
	case ANN:
		m := ann.New([]int{128, 64}, seed)
		m.Epochs = 60
		m.BatchSize = 32
		m.LR = 1e-3
		m.L2 = 1e-4
		m.NormalizeTarget = true
		m.HuberDelta = 0.5
		if size == SizeQuick {
			m.Hidden = []int{16}
			m.Epochs = 8
		}
		return m
	case GBRT:
		m := gbrt.New(200, 0.08, seed)
		m.MaxDepth = 5
		m.MinSamplesLeaf = 8
		m.Subsample = 0.8
		if size == SizeQuick {
			m.NumTrees = 25
			m.MaxDepth = 4
		}
		return m
	}
	panic(fmt.Sprintf("core: unknown model kind %d", int(kind)))
}

// Factory returns a grid-search factory for the model kind: each candidate
// hyperparameter assignment (see TuningGrid) builds a fresh regressor. The
// paper tunes each model this way with 10-fold cross-validation.
func Factory(kind ModelKind, seed int64) ml.Factory {
	switch kind {
	case Linear:
		return func(p ml.Params) ml.Regressor {
			return lasso.New(p["alpha"])
		}
	case ANN:
		return func(p ml.Params) ml.Regressor {
			hidden := []int{int(p["hidden"])}
			if p["hidden2"] > 0 {
				hidden = append(hidden, int(p["hidden2"]))
			}
			m := ann.New(hidden, seed)
			if p["epochs"] > 0 {
				m.Epochs = int(p["epochs"])
			}
			if p["lr"] > 0 {
				m.LR = p["lr"]
			}
			return m
		}
	case GBRT:
		return func(p ml.Params) ml.Regressor {
			m := gbrt.New(int(p["trees"]), p["lr"], seed)
			if p["depth"] > 0 {
				m.MaxDepth = int(p["depth"])
			}
			return m
		}
	}
	panic(fmt.Sprintf("core: unknown model kind %d", int(kind)))
}

// TuningGrid returns the hyperparameter grid the paper-style search
// explores for each model. Quick mode shrinks the grid for tests.
func TuningGrid(kind ModelKind, quick bool) ml.Grid {
	switch kind {
	case Linear:
		if quick {
			return ml.Grid{"alpha": {0.01, 0.1}}
		}
		return ml.Grid{"alpha": {0.001, 0.01, 0.1, 1.0}}
	case ANN:
		if quick {
			return ml.Grid{"hidden": {16}, "epochs": {6}, "lr": {2e-3}}
		}
		return ml.Grid{"hidden": {32, 64}, "hidden2": {0, 32}, "epochs": {40}, "lr": {1e-3, 2e-3}}
	case GBRT:
		if quick {
			return ml.Grid{"trees": {20}, "lr": {0.1}, "depth": {3, 4}}
		}
		return ml.Grid{"trees": {100, 200}, "lr": {0.05, 0.08, 0.12}, "depth": {4, 5}}
	}
	panic(fmt.Sprintf("core: unknown model kind %d", int(kind)))
}

// LabelRuns is the number of placement seeds whose congestion labels are
// averaged per operation when building the training dataset. The simulated
// annealer is stochastic where Vivado is deterministic, so a single run's
// label carries placement noise that no HLS-side feature could ever
// explain; averaging defines the target as the operation's *expected*
// congestion, the quantity a pre-PAR predictor can meaningfully estimate.
const LabelRuns = 3

// BuildOptions tunes a resilient dataset build.
type BuildOptions struct {
	// LabelRuns is the number of placement seeds averaged per label;
	// values below 1 mean 1.
	LabelRuns int
	// Retry governs per-flow-run retries with escalation. The zero value
	// disables retrying (single attempt per run).
	Retry flow.RetryPolicy
	// Workers bounds how many flow runs execute concurrently. Zero (the
	// default) uses runtime.GOMAXPROCS(0); 1 forces the sequential
	// reference execution. Whatever the value, the build is deterministic:
	// every run derives its placement seed from Config.Seed and its
	// (module, label-run) position alone, and results are reduced in index
	// order, so the dataset, summary and joined error are byte-identical
	// across worker counts.
	Workers int
}

// ModuleFailure records one module the dataset build had to skip.
type ModuleFailure struct {
	Module string
	Err    error
}

// BuildSummary reports what a dataset build actually did: how many
// modules survived, which failed and why, and how much retrying it took.
type BuildSummary struct {
	Modules   int
	Succeeded int
	Failed    []ModuleFailure
	// FlowRuns counts successful flow executions (label runs included).
	FlowRuns int
}

// Format renders the summary as a short human-readable report.
func (s *BuildSummary) Format() string {
	out := fmt.Sprintf("dataset build: %d/%d modules, %d flow runs", s.Succeeded, s.Modules, s.FlowRuns)
	for _, f := range s.Failed {
		out += fmt.Sprintf("\n  skipped %q: %v", f.Module, f.Err)
	}
	return out + "\n"
}

// Err joins the per-module failures (nil when every module succeeded).
func (s *BuildSummary) Err() error { return errors.Join(errList(s)...) }

// BuildDataset runs the complete implementation flow on every module,
// back-traces congestion labels (averaged over LabelRuns placement seeds),
// extracts features and assembles the combined dataset — the training
// phase of Fig. 2. The returned flow results are the first run per module.
func BuildDataset(mods []*ir.Module, cfg flow.Config) (*dataset.Dataset, []*flow.Result, error) {
	return BuildDatasetRuns(mods, cfg, LabelRuns)
}

// BuildDatasetRuns is BuildDataset with an explicit number of label-
// averaging placement runs; the ablation experiments use it to quantify
// what the averaging buys.
func BuildDatasetRuns(mods []*ir.Module, cfg flow.Config, labelRuns int) (*dataset.Dataset, []*flow.Result, error) {
	ds, results, _, err := BuildDatasetContext(context.Background(), mods, cfg, BuildOptions{LabelRuns: labelRuns})
	return ds, results, err
}

// BuildDatasetContext is the resilient dataset builder. Unlike the plain
// wrappers it does not abort on the first failure: each flow run is
// retried under opts.Retry with seed re-rolling and router escalation,
// modules that still fail are skipped and collected (errors.Join) while
// the remaining modules' samples are kept, and a BuildSummary reports what
// happened. The returned dataset and results are always non-nil alongside
// a non-nil error when at least one module survived; only context
// cancellation aborts the whole build.
//
// The build fans out: every (module, label-run) pair is an independent
// flow execution, and opts.Workers of them run concurrently (default: one
// per CPU). Parallel execution is an implementation detail — the per-run
// seed derivation, the row order, the label-averaging float arithmetic,
// the BuildSummary counts and the errors.Join order are reproduced by a
// sequential reduce over the per-cell results, so any worker count yields
// byte-identical output (see TestBuildDatasetDeterministicAcrossWorkers).
func BuildDatasetContext(ctx context.Context, mods []*ir.Module, cfg flow.Config, opts BuildOptions) (*dataset.Dataset, []*flow.Result, *BuildSummary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	labelRuns := opts.LabelRuns
	if labelRuns < 1 {
		labelRuns = 1
	}
	// One "dataset.build" span wraps the whole build; each (module,
	// label-run) cell starts its own child span on whatever worker runs
	// it (see runCells). Observation happens at cell granularity so the
	// parallel schedule is visible in the trace without perturbing it.
	o := cfg.Obs
	var bsp *obs.Span
	if obs.Tracing(ctx, o) {
		ctx, bsp = obs.StartSpan(ctx, o, "dataset.build",
			obs.Int("modules", int64(len(mods))), obs.Int("label_runs", int64(labelRuns)))
	}
	defer bsp.End()
	ds := dataset.New()
	cells := runCells(ctx, mods, cfg, labelRuns, opts)

	var results []*flow.Result
	sum := &BuildSummary{Modules: len(mods)}
	for mi, m := range mods {
		traced, first, runs, err := reduceModuleCells(cells[mi*labelRuns : (mi+1)*labelRuns])
		sum.FlowRuns += runs
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation is not a per-module condition: stop the
				// whole build and report how far it got.
				return ds, results, sum, errors.Join(append([]error{err}, errList(sum)...)...)
			}
			sum.Failed = append(sum.Failed, ModuleFailure{Module: m.Name, Err: err})
			o.Count(obs.MetricBuildModulesFailed, 1)
			if l := o.Logger(); l != nil {
				l.Warn("dataset build skipped module", "module", m.Name, "error", err)
			}
			continue
		}
		// Build the graph and extractor from the flow result's own module:
		// with flow caching enabled, `first` may have been produced from a
		// content-identical but pointer-distinct module instance, and the
		// extractor keys off op identity. Content equality makes the
		// emitted features byte-identical either way.
		g := graph.Build(first.Mod, first.Bind)
		ex := features.NewExtractor(first.Mod, first.Sched, first.Bind, g, cfg.Dev)
		ds.FromTrace(m.Name, traced, ex)
		results = append(results, first)
		sum.Succeeded++
	}
	o.Count(obs.MetricBuildFlowRuns, int64(sum.FlowRuns))
	if l := o.Logger(); l != nil {
		l.Info("dataset build complete", "modules", sum.Modules, "succeeded", sum.Succeeded,
			"flow_runs", sum.FlowRuns, "samples", ds.Len())
	}
	return ds, results, sum, sum.Err()
}

// cellSeedStride separates the placement seeds of a module's label runs; a
// large prime keeps re-rolled retry seeds (flow.RetryPolicy.SeedStride)
// from colliding with neighbor runs.
const cellSeedStride = 7919

// CellConfig returns the exact flow configuration label run `run` of a
// build with base config cfg executes: the placement seed is derived from
// the run position alone, never from scheduling, which is what makes every
// worker count produce the same per-cell outcome.
func CellConfig(cfg flow.Config, run int) flow.Config {
	runCfg := cfg
	runCfg.Seed = cfg.Seed + int64(run)*cellSeedStride
	return runCfg
}

// runCell is the outcome of one (module, label-run) flow execution.
type runCell struct {
	traced []backtrace.OpCongestion
	res    *flow.Result
	err    error
}

// errRunSkipped marks a label run never executed because an earlier seed
// of the same module had already failed. The reduce stops at that earlier
// failure, so this sentinel never reaches a caller; it only saves flow
// runs the sequential build would not have made either.
var errRunSkipped = errors.New("core: label run skipped after an earlier seed failed")

// runCells executes the flattened (module × label-run) grid on a bounded
// worker pool. Cell k covers module k/labelRuns, run k%labelRuns, and its
// placement seed depends only on that position — never on scheduling — so
// every worker count produces the same per-cell outcome.
func runCells(ctx context.Context, mods []*ir.Module, cfg flow.Config, labelRuns int, opts BuildOptions) []runCell {
	cells := make([]runCell, len(mods)*labelRuns)
	// failedAt[mi] is the lowest label-run index of module mi that has
	// failed so far (labelRuns = none yet). Later runs of a failed module
	// are skipped best-effort, mirroring the sequential early exit.
	failedAt := make([]atomic.Int64, len(mods))
	for i := range failedAt {
		failedAt[i].Store(int64(labelRuns))
	}
	perr := parallel.ForEach(ctx, len(cells), opts.Workers, func(ctx context.Context, k int) {
		mi, run := k/labelRuns, k%labelRuns
		if int64(run) > failedAt[mi].Load() {
			cells[k].err = errRunSkipped
			return
		}
		runCfg := CellConfig(cfg, run)
		o := cfg.Obs
		var sp *obs.Span
		t0 := time.Now()
		if obs.Tracing(ctx, o) {
			ctx, sp = obs.StartSpan(ctx, o, "module.run",
				obs.String("module", mods[mi].Name), obs.Int("label_run", int64(run)))
		}
		res, err := flow.RunWithRetry(ctx, mods[mi], runCfg, opts.Retry)
		sp.SetError(err)
		sp.End()
		o.ObserveMs(obs.MetricBuildRunMs, time.Since(t0))
		if err != nil {
			for {
				cur := failedAt[mi].Load()
				if int64(run) >= cur || failedAt[mi].CompareAndSwap(cur, int64(run)) {
					break
				}
			}
			cells[k].err = err
			return
		}
		cells[k].res = res
		cells[k].traced = backtrace.Trace(res)
	})
	if perr != nil {
		// The pool stopped early: cells no task ever touched carry the
		// cancellation cause so the reduce reports them as aborted runs.
		for k := range cells {
			if cells[k].err == nil && cells[k].res == nil {
				cells[k].err = perr
			}
		}
	}
	return cells
}

// reduceModuleCells folds one module's label runs into the seed-averaged
// trace, replaying the sequential aggregation in run order: the first
// failed run aborts the module with that error and a runs count of the
// successes before it, and the float accumulation order matches the
// sequential build exactly.
func reduceModuleCells(cells []runCell) (traced []backtrace.OpCongestion, first *flow.Result, runs int, err error) {
	labelRuns := len(cells)
	var marginVotes []int
	for run, c := range cells {
		if c.err != nil {
			return nil, nil, runs, c.err
		}
		runs++
		tr := c.traced
		if run == 0 {
			first = c.res
			traced = tr
			marginVotes = make([]int, len(tr))
			for i := range tr {
				if tr[i].Margin {
					marginVotes[i]++
				}
			}
			continue
		}
		if len(tr) != len(traced) {
			return nil, nil, runs, fmt.Errorf("trace size changed across seeds (%d vs %d)", len(tr), len(traced))
		}
		for i := range traced {
			traced[i].VertPct += tr[i].VertPct
			traced[i].HorizPct += tr[i].HorizPct
			traced[i].AvgPct += tr[i].AvgPct
			if tr[i].Margin {
				marginVotes[i]++
			}
		}
	}
	inv := 1.0 / float64(labelRuns)
	for i := range traced {
		traced[i].VertPct *= inv
		traced[i].HorizPct *= inv
		traced[i].AvgPct *= inv
		// An operation is marginal when placement puts it at the die
		// margin at least half the time.
		traced[i].Margin = 2*marginVotes[i] >= labelRuns
	}
	return traced, first, runs, nil
}

// errList converts the summary's failures for joining with an abort cause.
func errList(s *BuildSummary) []error {
	errs := make([]error, len(s.Failed))
	for i, f := range s.Failed {
		errs[i] = fmt.Errorf("core: dataset build on %q: %w", f.Module, f.Err)
	}
	return errs
}

// Predictor is the trained congestion estimator: one regressor per
// congestion target plus the feature scaler.
type Predictor struct {
	Kind   ModelKind
	scaler *ml.Scaler
	models map[dataset.Target]ml.Regressor
	// gbrt is the GBRT predictor's three models compiled together, in
	// dataset.Targets order, over one set of threshold tables: each row is
	// scaled and binned once for all three. Nil for the other kinds.
	gbrt *gbrt.Evaluator
	// query caches one PredictModule call's scratch for the next call. A
	// call takes it out with Swap and puts it back when done, so a second
	// concurrent call finds it empty and allocates its own; whichever
	// finishes last is kept.
	query atomic.Pointer[queryScratch]
}

// TrainOptions tunes predictor training.
type TrainOptions struct {
	Kind ModelKind
	// Filter removes marginal operations before training (Sec. III-C1).
	Filter bool
	Seed   int64
	// Size selects the model effort level; the zero value (SizeFull) is
	// the published configuration, SizeQuick the shrunken smoke-run one.
	Size ModelSize
}

// Train fits one regressor per congestion target on the dataset. The three
// fits run at the same time, one goroutine per target, and each model is
// bit-identical to one fitted alone. A panic inside a fit reaches the
// caller as a *parallel.PanicError.
func Train(ds *dataset.Dataset, opts TrainOptions) (*Predictor, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: train on empty dataset")
	}
	if opts.Filter {
		ds, _ = ds.FilterMarginal()
	}
	X, _ := ds.Matrix(dataset.Vertical)
	scaler := ml.FitScaler(X)
	var xm ml.Matrix
	scaler.TransformRowsInto(&xm, X)
	models, errs := fitTargets(xm.RowViews(nil), targetVectors(ds), opts.Kind, opts.Seed, opts.Size)
	p := &Predictor{Kind: opts.Kind, scaler: scaler, models: make(map[dataset.Target]ml.Regressor)}
	for i, t := range dataset.Targets {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: train %s/%s: %w", opts.Kind, t, errs[i])
		}
		p.models[t] = models[i]
	}
	if err := p.compile(); err != nil {
		return nil, fmt.Errorf("core: train: %w", err)
	}
	return p, nil
}

// targetVectors returns the dataset's labels, one vector per target in
// dataset.Targets order.
func targetVectors(ds *dataset.Dataset) [][]float64 {
	ys := make([][]float64, len(dataset.Targets))
	for i, t := range dataset.Targets {
		_, ys[i] = ds.Matrix(t)
	}
	return ys
}

// fitTargets fits one fresh model of the kind per target vector on the
// scaled rows Xs and returns the models and fit errors in ys's order. The
// targets share one feature matrix, so a model that can digest its rows
// (ml.SharedTrainer, e.g. GBRT's binning) prepares them once for all, and
// FitShared keeps every model bit-identical to a plain Fit.
//
// The fits share only read-only inputs (Xs and the immutable digest), and
// each model seeds its own random source, so they run at the same time,
// one goroutine per target: with three targets on two cores, a pool of two
// would leave the third fit running alone at the end. A panic in a fit is
// re-raised here as a *parallel.PanicError.
func fitTargets(Xs, ys [][]float64, kind ModelKind, seed int64, size ModelSize) ([]ml.Regressor, []error) {
	var prep any
	if st, ok := NewModelSized(kind, seed, size).(ml.SharedTrainer); ok {
		prep = st.PrepareShared(Xs)
	}
	// A fit observes no cancellation, so the context is never cancelled and
	// Map's error, the context's, is always nil.
	models, errs, _ := parallel.Map(context.Background(), len(ys), len(ys), func(_ context.Context, i int) (ml.Regressor, error) {
		m := NewModelSized(kind, seed, size)
		if st, ok := m.(ml.SharedTrainer); ok {
			return m, st.FitShared(prep, Xs, ys[i])
		}
		return m, m.Fit(Xs, ys[i])
	})
	return models, errs
}

// compile builds a GBRT predictor's joint evaluator; other kinds have none.
func (p *Predictor) compile() error {
	if p.Kind != GBRT {
		return nil
	}
	ms := make([]*gbrt.Model, len(dataset.Targets))
	for i, t := range dataset.Targets {
		m, ok := p.models[t].(*gbrt.Model)
		if !ok {
			return fmt.Errorf("%s model for %s is %T", p.Kind, t, p.models[t])
		}
		ms[i] = m
	}
	ev, err := gbrt.Compile(ms...)
	if err != nil {
		return err
	}
	p.gbrt = ev
	return nil
}

// Model exposes the trained regressor for a target (nil if missing).
func (p *Predictor) Model(t dataset.Target) ml.Regressor { return p.models[t] }

// NumFeatures returns the feature-vector width this predictor was trained
// on — the width every row handed to PredictSample or PredictBatchInto
// must have.
func (p *Predictor) NumFeatures() int { return p.scaler.Width() }

// BatchShapeError reports a prediction batch the predictor cannot score:
// a feature row whose width does not match the trained feature layout.
// Batches arrive from untrusted callers (the serving path decodes them off
// the network), so a malformed row is data, not a programming error — the
// batch is rejected before any model sees it, and no output slot is
// written.
type BatchShapeError struct {
	// Row is the index of the first offending feature row.
	Row int
	// Got is that row's width; Want is the predictor's feature count.
	Got, Want int
}

func (e *BatchShapeError) Error() string {
	return fmt.Sprintf("core: batch row %d has %d features, predictor wants %d", e.Row, e.Got, e.Want)
}

// validateBatch rejects ragged or mis-sized feature rows before they reach
// the scaler: TransformRowsInto sizes its flat matrix off row 0, so without
// this check a short row would read stale scratch and a long one would be
// silently truncated — either way corrupting the whole batch.
func (p *Predictor) validateBatch(feats [][]float64) error {
	want := p.NumFeatures()
	for i, row := range feats {
		if len(row) != want {
			return &BatchShapeError{Row: i, Got: len(row), Want: want}
		}
	}
	return nil
}

// predScratch is the pooled working set of the predictor's serving path:
// one standardized-row buffer for single samples, one flat matrix plus row
// views for batches. Pooling (instead of per-Predictor state) keeps
// concurrent prediction on a shared Predictor allocation-free and safe.
type predScratch struct {
	row  []float64
	m    ml.Matrix
	rows [][]float64
}

var predScratchPool = sync.Pool{New: func() any { return &predScratch{} }}

// PredictSample estimates all three congestion metrics for one raw feature
// vector. Steady-state calls do not allocate.
func (p *Predictor) PredictSample(feats []float64) (vert, horiz, avg float64) {
	if p.gbrt != nil {
		var v, h, a [1]float64
		p.gbrt.PredictInto([][]float64{v[:], h[:], a[:]}, [][]float64{feats}, p.scaler.Mean, p.scaler.Std)
		return v[0], h[0], a[0]
	}
	ps := predScratchPool.Get().(*predScratch)
	if cap(ps.row) < len(feats) {
		ps.row = make([]float64, len(feats))
	}
	row := ps.row[:len(feats)]
	p.scaler.TransformRowInto(row, feats)
	vert = p.models[dataset.Vertical].Predict(row)
	horiz = p.models[dataset.Horizontal].Predict(row)
	avg = p.models[dataset.Average].Predict(row)
	predScratchPool.Put(ps)
	return vert, horiz, avg
}

// PredictBatchInto estimates all three congestion metrics for a batch of
// raw feature vectors, writing into the caller-owned output slices (each
// len(feats)). A GBRT predictor scales and bins each row once into pooled
// bytes and walks all three compiled ensembles over them; the other kinds
// standardize rows into a pooled flat matrix and take each model's
// allocation-free batch path. Steady-state calls do not allocate. Values
// are identical to PredictSample per row.
//
// Every row must have exactly NumFeatures entries; a ragged or mis-sized
// batch is rejected whole with a *BatchShapeError before anything is
// written. Mis-sized output slices are a caller bug and still panic.
func (p *Predictor) PredictBatchInto(vert, horiz, avg []float64, feats [][]float64) error {
	if len(vert) != len(feats) || len(horiz) != len(feats) || len(avg) != len(feats) {
		panic(fmt.Sprintf("core: PredictBatchInto output lengths %d/%d/%d for %d rows",
			len(vert), len(horiz), len(avg), len(feats)))
	}
	if err := p.validateBatch(feats); err != nil {
		return err
	}
	if p.gbrt != nil {
		p.gbrt.PredictInto([][]float64{vert, horiz, avg}, feats, p.scaler.Mean, p.scaler.Std)
		return nil
	}
	ps := predScratchPool.Get().(*predScratch)
	p.scaler.TransformRowsInto(&ps.m, feats)
	ps.rows = ps.m.RowViews(ps.rows)
	ml.PredictBatchInto(p.models[dataset.Vertical], ps.rows, vert)
	ml.PredictBatchInto(p.models[dataset.Horizontal], ps.rows, horiz)
	ml.PredictBatchInto(p.models[dataset.Average], ps.rows, avg)
	predScratchPool.Put(ps)
	return nil
}

// OpPrediction is the estimated congestion of one IR operation.
type OpPrediction struct {
	Op       *ir.Op
	VertPct  float64
	HorizPct float64
	AvgPct   float64
}

// predictChunk is how many distinct feature rows PredictModule holds
// before it predicts them: the rows stay a fixed 256 × 302 floats (about
// 600 KB) whatever the design's size, and an op whose row is already held
// takes no new row.
const predictChunk = 256

// queryScratch is the working set of one predictOps call, kept on the
// Predictor for the next call: the chunk of distinct rows, their
// predictions, the row lookup and one slot index per op. Nothing in it
// outlives a call's answer; every entry a call reads it has written.
type queryScratch struct {
	rows             [][]float64
	vert, horiz, avg []float64
	slots            rowSlots
	opSlot           []int32
}

func newQueryScratch() *queryScratch {
	return &queryScratch{
		rows:  ml.NewMatrix(predictChunk, features.NumFeatures).RowViews(nil),
		vert:  make([]float64, predictChunk),
		horiz: make([]float64, predictChunk),
		avg:   make([]float64, predictChunk),
		slots: make(rowSlots, predictChunk),
	}
}

// PredictModule estimates per-operation congestion for a design running
// only the HLS front half (schedule + bind + feature extraction) — no
// placement, no routing. This is the prediction phase of Fig. 2: the whole
// point of the paper is that this call replaces hours of RTL
// implementation.
//
// Extraction streams into prediction, and each distinct feature row is
// evaluated once: every op is extracted into one buffer of predictChunk
// rows, an op whose row the buffer already holds shares that row, and the
// buffer is predicted whenever it is full of distinct rows, and at the
// end. HLS designs repeat their ops through unrolled loops and replicated
// units, so most ops share a row. Predictions are per row, so the answers
// equal those of one batch over every op. The Predictor keeps the buffer
// for its next query; concurrent queries are safe, each beyond the first
// working in a buffer of its own.
func (p *Predictor) PredictModule(m *ir.Module, cfg flow.Config) ([]OpPrediction, error) {
	ex, err := moduleExtractor(m, cfg)
	if err != nil {
		return nil, err
	}
	out, _, err := p.predictOps(ex, m.AllOps())
	return out, err
}

// moduleExtractor runs the HLS front half PredictModule needs (schedule,
// bind, graph) and returns the feature extractor over it.
func moduleExtractor(m *ir.Module, cfg flow.Config) (*features.Extractor, error) {
	sched, err := hls.ScheduleModule(m, cfg.Clock)
	if err != nil {
		return nil, fmt.Errorf("core: predict: %w", err)
	}
	bind := hls.BindModule(sched)
	return features.NewExtractor(m, sched, bind, graph.Build(m, bind), cfg.Dev), nil
}

// predictOps predicts every op from its feature row, evaluating each
// distinct row of a chunk once, and also returns how many rows it
// evaluated. It works in the Predictor's cached queryScratch when no other
// call holds it, and in a fresh one otherwise.
func (p *Predictor) predictOps(ex *features.Extractor, ops []*ir.Op) ([]OpPrediction, int, error) {
	if len(ops) == 0 {
		return nil, 0, nil
	}
	sc := p.query.Swap(nil)
	if sc == nil {
		sc = newQueryScratch()
	}
	defer p.query.Store(sc)
	// A call that returns early leaves rows in the lookup; the next call
	// must start from an empty one.
	clear(sc.slots)
	if cap(sc.opSlot) < len(ops) {
		sc.opSlot = make([]int32, len(ops))
	}
	rows, vert, horiz, avg, slots := sc.rows, sc.vert, sc.horiz, sc.avg, sc.slots
	opSlot := sc.opSlot[:len(ops)]
	out := make([]OpPrediction, len(ops))
	// rows[:used] are the chunk's distinct rows; ops[done:] are the ops not
	// yet answered, each reading its row from rows[opSlot[i]].
	used, done, evaluated := 0, 0, 0
	flush := func(end int) error {
		if err := p.PredictBatchInto(vert[:used], horiz[:used], avg[:used], rows[:used]); err != nil {
			// The extractor emits fixed-width vectors, so a shape error here
			// means the predictor artifact and the library's feature layout
			// have drifted apart.
			return fmt.Errorf("core: predict: %w", err)
		}
		for i := done; i < end; i++ {
			s := opSlot[i]
			out[i] = OpPrediction{Op: ops[i], VertPct: vert[s], HorizPct: horiz[s], AvgPct: avg[s]}
		}
		evaluated += used
		used, done = 0, end
		clear(slots)
		return nil
	}
	for i, o := range ops {
		ex.VectorInto(rows[used], o)
		s := slots.slot(rows, used)
		opSlot[i] = int32(s)
		if s < used {
			continue // a repeated row: rows[used] is free for the next op
		}
		if used++; used == predictChunk {
			if err := flush(i + 1); err != nil {
				return nil, 0, err
			}
		}
	}
	if done < len(ops) {
		if err := flush(len(ops)); err != nil {
			return nil, 0, err
		}
	}
	return out, evaluated, nil
}

// rowSlots finds the slot of PredictModule's chunk buffer that already
// holds a feature row. Rows match on their exact float64 bits, not on ==,
// so −0 and +0, or two NaN payloads, never share a slot: a shared slot
// always holds the very row the op would have been predicted from.
//
// The keys are the rows' bytes viewed in place (rowKey), so the map
// hashes and compares whole rows without copying them. A key aliases its
// buffer row, which must not change while the key is in the map: a row
// is only written while it is the free slot, and the map is cleared
// before the buffer is refilled.
type rowSlots map[string]int32

// slot returns the slot s < k whose row has the bits of rows[k], or else k
// itself, which it then records as the slot holding that row.
func (rs rowSlots) slot(rows [][]float64, k int) int {
	key := rowKey(rows[k])
	if s, ok := rs[key]; ok {
		return int(s)
	}
	rs[key] = int32(k)
	return k
}

// rowKey views row's float64 bits as a string of 8 bytes per entry,
// without copying: equal keys are equal bits.
func rowKey(row []float64) string {
	return unsafe.String((*byte)(unsafe.Pointer(unsafe.SliceData(row))), len(row)*8)
}

// Hotspot aggregates predicted congestion per source location — the
// "congested region in the source code" report the designer acts on.
type Hotspot struct {
	Loc    ir.SourceLoc
	Ops    int
	MaxAvg float64
	MeanV  float64
	MeanH  float64
}

// Hotspots groups predictions by source line, sorted by descending maximum
// predicted average congestion.
func Hotspots(preds []OpPrediction) []Hotspot {
	agg := make(map[ir.SourceLoc]*Hotspot)
	for _, pr := range preds {
		h := agg[pr.Op.Src]
		if h == nil {
			h = &Hotspot{Loc: pr.Op.Src}
			agg[pr.Op.Src] = h
		}
		h.Ops++
		h.MeanV += pr.VertPct
		h.MeanH += pr.HorizPct
		if pr.AvgPct > h.MaxAvg {
			h.MaxAvg = pr.AvgPct
		}
	}
	out := make([]Hotspot, 0, len(agg))
	for _, h := range agg {
		h.MeanV /= float64(h.Ops)
		h.MeanH /= float64(h.Ops)
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxAvg != out[j].MaxAvg {
			return out[i].MaxAvg > out[j].MaxAvg
		}
		if out[i].Loc.File != out[j].Loc.File {
			return out[i].Loc.File < out[j].Loc.File
		}
		return out[i].Loc.Line < out[j].Loc.Line
	})
	return out
}

// Accuracy is one Table IV cell pair.
type Accuracy struct {
	MAE   float64
	MedAE float64
}

// EvalRow is one Table IV row: accuracy per congestion target for one
// model and filtering choice.
type EvalRow struct {
	Kind     ModelKind
	Filtered bool
	Acc      map[dataset.Target]Accuracy
}

// Evaluate reproduces one Table IV row: randomly split the dataset 80/20
// (the split depends only on the seed, so every model and filtering choice
// is compared on the same partition), optionally drop the marginal
// operations from both sides (Sec. III-C1 filters during dataset
// construction, before any split), train on the training portion (the
// three targets at the same time, as Train does) and score MAE/MedAE on the
// unseen test split.
func Evaluate(ds *dataset.Dataset, kind ModelKind, filter bool, seed int64) (EvalRow, error) {
	return EvaluateSized(ds, kind, filter, seed, SizeFull)
}

// EvaluateSized is Evaluate with an explicit model effort level.
func EvaluateSized(ds *dataset.Dataset, kind ModelKind, filter bool, seed int64, size ModelSize) (EvalRow, error) {
	row := EvalRow{Kind: kind, Filtered: filter, Acc: make(map[dataset.Target]Accuracy)}
	train, test := evalSplit(ds, filter, seed)
	Xtr, _ := train.Matrix(dataset.Vertical)
	scaler := ml.FitScaler(Xtr)
	var xtrM, xteM ml.Matrix
	scaler.TransformRowsInto(&xtrM, Xtr)
	XtrS := xtrM.RowViews(nil)
	Xte, _ := test.Matrix(dataset.Vertical)
	scaler.TransformRowsInto(&xteM, Xte)
	XteS := xteM.RowViews(nil)

	models, errs := fitTargets(XtrS, targetVectors(train), kind, seed, size)
	pred := make([]float64, len(XteS))
	for i, t := range dataset.Targets {
		if errs[i] != nil {
			return row, fmt.Errorf("core: evaluate %s/%s: %w", kind, t, errs[i])
		}
		_, yte := test.Matrix(t)
		ml.PredictBatchInto(models[i], XteS, pred)
		row.Acc[t] = Accuracy{MAE: ml.MAE(yte, pred), MedAE: ml.MedAE(yte, pred)}
	}
	return row, nil
}

// evalSplit is Evaluate's seeded 80/20 split, the marginal operations
// dropped from both sides when filter is set.
func evalSplit(ds *dataset.Dataset, filter bool, seed int64) (train, test *dataset.Dataset) {
	split := ml.TrainTestSplit(ds.Len(), 0.2, rand.New(rand.NewSource(seed)))
	marginal := ds.Marginal()
	pick := func(idx []int) *dataset.Dataset {
		out := &dataset.Dataset{FeatureNames: ds.FeatureNames}
		for _, i := range idx {
			if filter && marginal[i] {
				continue
			}
			out.Samples = append(out.Samples, ds.Samples[i])
		}
		return out
	}
	return pick(split.Train), pick(split.Test)
}
