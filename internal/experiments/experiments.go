// Package experiments regenerates every table and figure of the paper's
// evaluation section from the simulated flow: Table I (directive
// comparison), Figure 1 (congestion maps), Table III (benchmark property
// summary), Table IV (congestion estimation accuracy — the headline
// result), Table V (important feature categories), Table VI (the Face
// Detection case study) and Figures 5/6 (congestion distributions). Each
// runner returns structured results plus a formatted text rendering; the
// root-level benchmarks and cmd/hlscong call straight into them.
package experiments

import (
	"context"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flow"
	"repro/internal/flowcache"
	"repro/internal/ir"
)

// Config selects the flow setup and effort level for experiment runs.
type Config struct {
	Flow flow.Config
	// Seed drives the train/test split and model seeds.
	Seed int64
	// Quick shrinks the ML models (fewer boosting stages / epochs) so unit
	// tests finish fast; published numbers use Quick=false.
	Quick bool
	// Workers bounds how many flow runs (dataset builds) and grid-search
	// cells evaluate concurrently. Zero means one worker per CPU; 1 forces
	// sequential execution. Results are identical either way — see
	// core.BuildOptions.Workers and ml.GridSearchCVWorkers.
	Workers int
	// Ctx optionally bounds every flow run of the experiment (deadline,
	// Ctrl-C); nil means context.Background().
	Ctx context.Context
}

// ctx normalizes the optional context.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// DefaultConfig mirrors the paper's setup. It installs a flow cache so
// repeated (design, config, seed) implementations across tables, figures
// and ablations are memoized within one experiment session — outputs are
// byte-identical with the cache removed (Flow.Cache = nil).
func DefaultConfig() Config {
	cfg := flow.DefaultConfig()
	cfg.Cache = flowcache.New(0)
	return Config{Flow: cfg, Seed: 42}
}

// buildModel adapts the model size to the effort level.
func (c Config) evaluate(ds *dataset.Dataset, kind core.ModelKind, filter bool) (core.EvalRow, error) {
	if !c.Quick {
		return core.Evaluate(ds, kind, filter, c.Seed)
	}
	return core.EvaluateSized(ds, kind, filter, c.Seed, core.SizeQuick)
}

// RunOnce executes the flow on one module with the experiment's setup.
func RunOnce(m *ir.Module, cfg Config) (*flow.Result, error) {
	return flow.RunContext(cfg.ctx(), m, cfg.Flow)
}

// PaperDataset builds the paper's 8111-sample-scale dataset from the three
// combined implementations (Face Detection; Digit Recognition + Spam
// Filtering; BNN + 3D Rendering + Optical Flow).
func (c Config) PaperDataset() (*dataset.Dataset, []*flow.Result, error) {
	ds, results, _, err := core.BuildDatasetContext(c.ctx(), bench.TrainingModules(), c.Flow,
		core.BuildOptions{LabelRuns: core.LabelRuns, Retry: flow.DefaultRetryPolicy(),
			Workers: c.Workers})
	return ds, results, err
}
