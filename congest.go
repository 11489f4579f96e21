// Package congest is the public API of this repository: a from-scratch Go
// reproduction of "Machine Learning Based Routing Congestion Prediction in
// FPGA High-Level Synthesis" (Zhao, Liang, Sinha, Zhang — DATE 2019).
//
// The library predicts post-place-and-route routing congestion for FPGA
// high-level-synthesis designs at the IR level — before placement and
// routing ever run — and maps the predicted hotspots back to source
// locations. It bundles every substrate the paper depends on: an HLS IR
// with directive-aware builders, a scheduler/binder with a characterized
// operator library, an RTL netlist elaborator, a Zynq XC7Z020 device model
// with a simulated-annealing placer and PathFinder-style router, a
// back-tracing flow from per-CLB congestion to IR operations, the paper's
// 302-feature extractor, and Lasso/ANN/GBRT regressors written on the
// standard library alone.
//
// Quick start:
//
//	ds, _, err := congest.BuildTrainingDataset(congest.DefaultFlowConfig())
//	if err != nil { ... }
//	pred, err := congest.TrainPredictor(ds, congest.TrainOptions{Kind: congest.GBRT, Filter: true})
//	if err != nil { ... }
//	design := congest.FaceDetection(congest.WithDirectives())
//	preds, err := pred.PredictModule(design, congest.DefaultFlowConfig())
//	hot := congest.Hotspots(preds) // hottest source lines first
//
// The experiment runners under internal/experiments regenerate every table
// and figure of the paper; the root-level benchmarks (bench_test.go) and
// the cmd/hlscong CLI expose them.
package congest

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/flowcache"
	"repro/internal/ir"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/timing"
)

// Re-exported core types. The aliases keep one canonical implementation in
// the internal packages while giving library users a single import.
type (
	// Module is a whole HLS design: functions, arrays, loops, operations.
	Module = ir.Module
	// Builder constructs the dataflow graph of one function.
	Builder = ir.Builder
	// Op is one IR operation.
	Op = ir.Op
	// SourceLoc is a source-code position attached to operations.
	SourceLoc = ir.SourceLoc
	// Directives is the HLS optimization bundle of a generated benchmark.
	Directives = bench.Directives
	// FlowConfig selects the device, clock and tool options of the
	// simulated C-to-FPGA flow.
	FlowConfig = flow.Config
	// FlowResult bundles the artifacts of one implementation run.
	FlowResult = flow.Result
	// PerfRow is the per-implementation performance summary row.
	PerfRow = flow.PerfRow
	// Dataset is the training dataset of (features, congestion) samples.
	Dataset = dataset.Dataset
	// Sample is one dataset row.
	Sample = dataset.Sample
	// Target selects a congestion label (Vertical, Horizontal, Average).
	Target = dataset.Target
	// Predictor is a trained congestion estimator.
	Predictor = core.Predictor
	// TrainOptions tunes predictor training.
	TrainOptions = core.TrainOptions
	// OpPrediction is the estimated congestion of one operation.
	OpPrediction = core.OpPrediction
	// Hotspot is predicted congestion aggregated per source location.
	Hotspot = core.Hotspot
	// ModelKind selects Linear, ANN or GBRT.
	ModelKind = core.ModelKind
	// ModelSize selects the model effort level (TrainOptions.Size):
	// SizeFull is the published configuration, SizeQuick a shrunken
	// variant for tests and smoke runs.
	ModelSize = core.ModelSize
	// CongestionMap is the per-tile routing congestion map.
	CongestionMap = congestion.Map
	// EvalRow is one Table IV accuracy row.
	EvalRow = core.EvalRow
	// StageError reports which stage of which design's run failed; match
	// its sentinel causes with errors.Is.
	StageError = flow.StageError
	// Convergence is the router's convergence status on a FlowResult.
	Convergence = flow.Convergence
	// RetryPolicy governs flow retries with seed re-roll and router
	// escalation.
	RetryPolicy = flow.RetryPolicy
	// FaultInjector deterministically injects stage failures into the flow
	// (FlowConfig.Faults); see internal/faults for implementations.
	FaultInjector = faults.Injector
	// BuildSummary reports which modules a dataset build skipped and why.
	BuildSummary = core.BuildSummary
	// BuildOptions tunes the resilient dataset builder.
	BuildOptions = core.BuildOptions
	// FlowCache memoizes completed flow runs content-addressed by design,
	// config and seed (FlowConfig.Cache); see internal/flowcache.
	FlowCache = flowcache.Cache
	// FlowCacheStats is a snapshot of a FlowCache's hit/miss counters.
	FlowCacheStats = flowcache.Stats
	// ArtifactStore is the crash-safe persistent artifact tier: a
	// disk-backed content-addressed store with atomic writes, read-side
	// verification, quarantine of corrupt entries and mtime-LRU eviction;
	// see internal/store. Attach one to a FlowCache (AttachStore) to spill
	// completed flow runs to disk, or wrap it in a BuildCheckpoint to make
	// dataset builds resumable.
	ArtifactStore = store.Store
	// ArtifactStoreOptions tunes an ArtifactStore (byte budget, fault
	// injection, put hooks).
	ArtifactStoreOptions = store.Options
	// ArtifactStoreStats is a snapshot of an ArtifactStore's counters.
	ArtifactStoreStats = store.Stats
	// BuildCheckpoint persists per-module dataset-build progress so a
	// killed build resumes (BuildOptions.Checkpoint).
	BuildCheckpoint = store.Checkpoint
	// DiskFaultScript deterministically injects disk faults (torn write,
	// bit flip, ENOSPC, rename failure) into an ArtifactStore's write path
	// (ArtifactStoreOptions.Faults); see internal/faults.
	DiskFaultScript = faults.DiskScript
	// BatchShapeError reports a prediction batch rejected before scoring:
	// a feature row whose width does not match the predictor's trained
	// feature layout. Match with errors.As on PredictBatch/PredictBatchInto
	// errors; serving callers turn it into a client error (HTTP 400), not a
	// server fault.
	BatchShapeError = core.BatchShapeError
)

// Sentinel flow errors, re-exported for errors.Is matching at the facade.
var (
	// ErrUnroutable marks a router that exhausted its iterations with
	// overused tiles (under strict convergence or fault injection).
	ErrUnroutable = flow.ErrUnroutable
	// ErrPlacementOverflow marks a design exceeding device capacity.
	ErrPlacementOverflow = flow.ErrPlacementOverflow
	// ErrTimedOut marks a flow run cancelled by a context deadline.
	ErrTimedOut = flow.ErrTimedOut
)

// Model kinds.
const (
	// Linear is the Lasso linear model.
	Linear = core.Linear
	// ANN is the multilayer-perceptron regressor.
	ANN = core.ANN
	// GBRT is the gradient-boosted regression tree ensemble, the paper's
	// most accurate model.
	GBRT = core.GBRT
)

// Model effort levels (TrainOptions.Size).
const (
	// SizeFull is the grid-search-tuned configuration the tables use.
	SizeFull = core.SizeFull
	// SizeQuick trades accuracy for speed (tests, smoke runs).
	SizeQuick = core.SizeQuick
)

// Congestion label targets.
const (
	// Vertical is the vertical routing congestion percentage.
	Vertical = dataset.Vertical
	// Horizontal is the horizontal routing congestion percentage.
	Horizontal = dataset.Horizontal
	// Average is the paper's Avg (V, H) metric.
	Average = dataset.Average
)

// OpKind enumerates IR operation kinds.
type OpKind = ir.OpKind

// Operation kinds, re-exported for design construction through the facade.
const (
	KindAdd    = ir.KindAdd
	KindSub    = ir.KindSub
	KindMul    = ir.KindMul
	KindDiv    = ir.KindDiv
	KindRem    = ir.KindRem
	KindAnd    = ir.KindAnd
	KindOr     = ir.KindOr
	KindXor    = ir.KindXor
	KindNot    = ir.KindNot
	KindShl    = ir.KindShl
	KindLShr   = ir.KindLShr
	KindAShr   = ir.KindAShr
	KindICmp   = ir.KindICmp
	KindFAdd   = ir.KindFAdd
	KindFSub   = ir.KindFSub
	KindFMul   = ir.KindFMul
	KindFDiv   = ir.KindFDiv
	KindFCmp   = ir.KindFCmp
	KindSqrt   = ir.KindSqrt
	KindSelect = ir.KindSelect
	KindPhi    = ir.KindPhi
	KindLoad   = ir.KindLoad
	KindStore  = ir.KindStore
	KindTrunc  = ir.KindTrunc
	KindZExt   = ir.KindZExt
	KindSExt   = ir.KindSExt
	KindConcat = ir.KindConcat
	KindBitSel = ir.KindBitSel
	KindConst  = ir.KindConst
	KindCall   = ir.KindCall
	KindRet    = ir.KindRet
	KindPort   = ir.KindPort
)

// MapMetric selects a congestion-map view for rendering.
type MapMetric = congestion.Metric

// Congestion-map metrics (distinct from the dataset Targets, which label
// training samples).
const (
	MapVertical   = congestion.Vertical
	MapHorizontal = congestion.Horizontal
	MapAverage    = congestion.Average
)

// NewModule creates an empty design to build programmatically.
func NewModule(name string) *Module { return ir.NewModule(name) }

// NewBuilder returns a builder appending operations to a function.
func NewBuilder(f *ir.Function) *Builder { return ir.NewBuilder(f) }

// DefaultFlowConfig is the paper's setup: Zynq XC7Z020 at a 100 MHz target
// with the tuned placer/router/timing options.
func DefaultFlowConfig() FlowConfig { return flow.DefaultConfig() }

// NewFlowCache returns a concurrency-safe LRU cache holding up to
// maxEntries memoized flow results (maxEntries <= 0 selects the default
// bound). Assign it to FlowConfig.Cache so repeated (design, config, seed)
// implementations — label runs, ablations, experiment sweeps — are served
// without re-running placement and routing; outputs are byte-identical with
// caching off.
func NewFlowCache(maxEntries int) *FlowCache { return flowcache.New(maxEntries) }

// OpenArtifactStore opens (creating if needed) a crash-safe persistent
// artifact store rooted at dir. The startup scan quarantines torn or
// corrupt entries and enforces the byte budget, so a store left behind by
// a killed process is always safe to reopen.
func OpenArtifactStore(dir string, opts ArtifactStoreOptions) (*ArtifactStore, error) {
	return store.Open(dir, opts)
}

// NewBuildCheckpoint wraps an ArtifactStore as a dataset-build checkpoint
// for BuildOptions.Checkpoint. A nil store yields a nil (disabled)
// checkpoint.
func NewBuildCheckpoint(s *ArtifactStore) *BuildCheckpoint { return store.NewCheckpoint(s) }

// guard is the facade's panic firewall: it converts internal invariant
// panics (ir validation, feature extraction, model internals) escaping an
// exported entry point into a wrapped error naming that entry point, so no
// malformed input can crash a caller that checks errors.
func guard(entry string, errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("congest: %s: internal panic: %v", entry, r)
	}
}

// RunFlow executes the complete synthetic C-to-FPGA flow (schedule, bind,
// elaborate, place, route, timing) on a design.
func RunFlow(m *Module, cfg FlowConfig) (*FlowResult, error) {
	return RunFlowContext(context.Background(), m, cfg)
}

// RunFlowContext is RunFlow under a context: cancellation and deadlines
// are honored within one placer/router iteration, and a deadline expiry
// returns an error matching both ErrTimedOut and context.DeadlineExceeded.
// Stage failures come back as *StageError.
func RunFlowContext(ctx context.Context, m *Module, cfg FlowConfig) (res *FlowResult, err error) {
	defer guard("RunFlowContext", &err)
	return flow.RunContext(ctx, m, cfg)
}

// RunFlowRetry is RunFlowContext under a RetryPolicy: failed runs are
// retried with a re-rolled seed and escalated router effort.
func RunFlowRetry(ctx context.Context, m *Module, cfg FlowConfig, p RetryPolicy) (res *FlowResult, err error) {
	defer guard("RunFlowRetry", &err)
	return flow.RunWithRetry(ctx, m, cfg, p)
}

// DefaultRetryPolicy is the escalation used by resilient dataset builds.
func DefaultRetryPolicy() RetryPolicy { return flow.DefaultRetryPolicy() }

// TrainingModules returns the paper's three dataset implementations: Face
// Detection (optimized, alone), Digit Recognition + Spam Filtering, and
// BNN + 3D Rendering + Optical Flow.
func TrainingModules() []*Module { return bench.TrainingModules() }

// FaceDetection generates the Face Detection benchmark under a directive
// set; see WithDirectives, WithoutDirectives, NotInline and Replication.
func FaceDetection(d Directives) *Module { return bench.FaceDetection(d) }

// DigitSpam generates the combined Digit Recognition + Spam Filtering
// implementation.
func DigitSpam() *Module { return bench.DigitSpam() }

// BNNRenderFlow generates the combined BNN + 3D Rendering + Optical Flow
// implementation.
func BNNRenderFlow() *Module { return bench.BNNRenderFlow() }

// WithDirectives is the paper's optimized Face Detection configuration
// (inlining, unrolling, pipelining, complete array partitioning).
func WithDirectives() Directives { return bench.WithDirectives() }

// WithoutDirectives disables every optimization directive.
func WithoutDirectives() Directives { return bench.WithoutDirectives() }

// NotInline is the case study's first congestion-resolution step.
func NotInline() Directives { return bench.NotInline() }

// Replication is the case study's second congestion-resolution step.
func Replication() Directives { return bench.Replication() }

// BuildTrainingDataset runs the full flow over the paper's three training
// implementations, back-traces per-CLB congestion onto IR operations and
// extracts the 302 features per sample. Flow runs execute concurrently,
// one worker per CPU; the result is byte-identical to a sequential build
// (see BuildDatasetResilient for the Workers knob).
func BuildTrainingDataset(cfg FlowConfig) (*Dataset, []*FlowResult, error) {
	return BuildDataset(bench.TrainingModules(), cfg)
}

// BuildDataset is BuildTrainingDataset over caller-supplied designs.
func BuildDataset(mods []*Module, cfg FlowConfig) (ds *Dataset, results []*FlowResult, err error) {
	defer guard("BuildDataset", &err)
	return core.BuildDataset(mods, cfg)
}

// BuildDatasetResilient is BuildDataset with cancellation, per-run retry
// under the policy in opts, and degradation: modules that still fail after
// retrying are skipped (their errors joined into err) while the remaining
// modules' samples are returned, with a BuildSummary reporting what
// happened. opts.Workers bounds how many flow runs execute concurrently
// (0 = one per CPU, 1 = sequential); rows, labels, summary counts and
// joined error order are identical for every worker count.
func BuildDatasetResilient(ctx context.Context, mods []*Module, cfg FlowConfig, opts BuildOptions) (ds *Dataset, results []*FlowResult, sum *BuildSummary, err error) {
	defer guard("BuildDatasetResilient", &err)
	return core.BuildDatasetContext(ctx, mods, cfg, opts)
}

// TrainPredictor fits one regressor per congestion target.
func TrainPredictor(ds *Dataset, opts TrainOptions) (p *Predictor, err error) {
	defer guard("TrainPredictor", &err)
	return core.Train(ds, opts)
}

// PredictModule estimates per-operation congestion for a design running
// only the HLS front half — no placement, no routing. It is the
// panic-guarded facade form of Predictor.PredictModule.
func PredictModule(p *Predictor, m *Module, cfg FlowConfig) (preds []OpPrediction, err error) {
	defer guard("PredictModule", &err)
	if p == nil {
		return nil, fmt.Errorf("congest: PredictModule: nil predictor")
	}
	return p.PredictModule(m, cfg)
}

// PredictBatch estimates all three congestion metrics for a batch of raw
// feature vectors (one Extractor.Vector-shaped row per sample), returning
// freshly allocated result slices. It is the convenience form of
// PredictBatchInto.
func PredictBatch(p *Predictor, feats [][]float64) (vert, horiz, avg []float64, err error) {
	defer guard("PredictBatch", &err)
	if p == nil {
		return nil, nil, nil, fmt.Errorf("congest: PredictBatch: nil predictor")
	}
	vert = make([]float64, len(feats))
	horiz = make([]float64, len(feats))
	avg = make([]float64, len(feats))
	if err := p.PredictBatchInto(vert, horiz, avg, feats); err != nil {
		return nil, nil, nil, err
	}
	return vert, horiz, avg, nil
}

// PredictBatchInto is the serving fast path: it fills the caller-owned
// output slices (each len(feats)) with the three congestion estimates per
// feature vector. Steady-state calls do not allocate — a GBRT predictor
// scales and bins rows into pooled scratch and walks its compiled trees —
// so a caller scoring many batches can reuse its slices across
// calls. Values are identical to Predictor.PredictSample per row.
//
// Every feature row must have Predictor.NumFeatures entries; ragged or
// mis-sized batches come back whole as a *BatchShapeError (errors.As) with
// nothing written.
func PredictBatchInto(p *Predictor, vert, horiz, avg []float64, feats [][]float64) (err error) {
	defer guard("PredictBatchInto", &err)
	if p == nil {
		return fmt.Errorf("congest: PredictBatchInto: nil predictor")
	}
	return p.PredictBatchInto(vert, horiz, avg, feats)
}

// Hotspots groups per-operation predictions by source line, hottest first.
func Hotspots(preds []OpPrediction) []Hotspot { return core.Hotspots(preds) }

// Evaluate scores one model/filtering combination with the paper's 80/20
// protocol, returning MAE and MedAE per congestion target (a Table IV row).
func Evaluate(ds *Dataset, kind ModelKind, filter bool, seed int64) (row EvalRow, err error) {
	defer guard("Evaluate", &err)
	return core.Evaluate(ds, kind, filter, seed)
}

// Optimize runs the IR cleanup pipeline (common-subexpression merging,
// then dead-code elimination) on a hand-built design, returning how many
// operations were folded and removed. The benchmark generators emit clean
// graphs; run this on designs you construct yourself.
func Optimize(m *Module) (folded, removed int) { return ir.Optimize(m) }

// Report renders the full designer-facing report bundle for a completed
// flow run: the HLS synthesis report, the device utilization table and the
// post-implementation QoR summary with the worst timing paths.
func Report(res *FlowResult) string { return report.Full(res) }

// CriticalPaths returns the k slowest timing paths of a completed run,
// wire and logic delay split out, congestion-aware.
func CriticalPaths(res *FlowResult, k int) []timing.Path {
	return timing.CriticalPaths(res.Sched, res.Netlist, res.Routing, res.Config.Timing, k)
}

// SavePredictor serializes a trained predictor as JSON.
func SavePredictor(p *Predictor, w io.Writer) (err error) {
	defer guard("SavePredictor", &err)
	if p == nil {
		return fmt.Errorf("congest: SavePredictor: nil predictor")
	}
	return p.Save(w)
}

// LoadPredictor restores a predictor saved with SavePredictor, validating
// the payload (model kind, feature count, finite weights) before use.
func LoadPredictor(r io.Reader) (p *Predictor, err error) {
	defer guard("LoadPredictor", &err)
	return core.LoadPredictor(r)
}

// LoadPredictorFile restores a predictor from a SavePredictor artifact on
// disk. It is the one validated load path the prediction server's startup
// and hot-reload share: the artifact is decoded, validated and probed in
// full before the predictor is returned, so a failed load can never leave
// a caller holding a half-initialized model.
func LoadPredictorFile(path string) (p *Predictor, err error) {
	defer guard("LoadPredictorFile", &err)
	return core.LoadPredictorFile(path)
}
