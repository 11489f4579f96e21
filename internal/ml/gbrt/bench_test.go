package gbrt

// Benchmarks for the GBRT trainer and evaluator. The *Ref benchmarks drive
// the frozen reference trainer from equiv_test.go (row-major binning per
// fit, pointer nodes, per-node full histogram scans, per-cell Take copies
// in the grid search); their non-Ref counterparts drive the shipped fast
// path on the same data. The *PaperShape benchmarks time the shipped fit
// and the compiled evaluator on columns shaped like the paper's 302 HLS
// features.

import (
	"math/rand"
	"testing"

	"repro/internal/ml"
)

func benchData(n, d int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(77))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = 2*row[0] - row[1]*row[1] + 0.5*row[2] + 0.1*rng.NormFloat64()
	}
	return X, y
}

var benchCfg = Model{NumTrees: 30, LearningRate: 0.1, MaxDepth: 4, MinSamplesLeaf: 5, Subsample: 1, Bins: 32, Seed: 1}

func BenchmarkFitRef(b *testing.B) {
	X, y := benchData(400, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := refFrom(benchCfg, 1)
		if err := m.fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFit(b *testing.B) {
	X, y := benchData(400, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := benchCfg
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// refGridSearchCV replicates the pre-fast-path grid search over the
// frozen reference model: per-cell Take copies and a full fit (its own
// binning pass) for every (candidate, fold) cell.
func refGridSearchCV(grid ml.Grid, X [][]float64, y []float64, k int, rng *rand.Rand) float64 {
	folds := ml.KFold(len(X), k, rng)
	cands := grid.Enumerate()
	best := -1.0
	for _, p := range cands {
		score := 0.0
		for _, fold := range folds {
			trX, trY := ml.Take(X, y, fold.Train)
			teX, teY := ml.Take(X, y, fold.Test)
			m := refFrom(Model{
				NumTrees: int(p["trees"]), LearningRate: p["lr"], MaxDepth: int(p["depth"]),
				MinSamplesLeaf: 5, Subsample: 1, Bins: 32,
			}, 1)
			if err := m.fit(trX, trY); err != nil {
				panic(err)
			}
			pred := make([]float64, len(teX))
			for i, x := range teX {
				pred[i] = m.predict(x)
			}
			score += ml.MAE(teY, pred)
		}
		score /= float64(len(folds))
		if best < 0 || score < best {
			best = score
		}
	}
	return best
}

var benchGrid = ml.Grid{"trees": {10, 20}, "depth": {3, 4}, "lr": {0.05, 0.1}}

// The grid-search pair uses a feature dimension in the ballpark of the
// paper's HLS feature vectors (hundreds of columns), where per-cell
// re-binning is a large share of the reference's cost.
func BenchmarkGridSearchCVRef(b *testing.B) {
	X, y := benchData(300, 150)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = refGridSearchCV(benchGrid, X, y, 3, rand.New(rand.NewSource(9)))
	}
}

func BenchmarkGridSearchCV(b *testing.B) {
	X, y := benchData(300, 150)
	factory := func(p ml.Params) ml.Regressor {
		return &Model{
			NumTrees: int(p["trees"]), LearningRate: p["lr"], MaxDepth: int(p["depth"]),
			MinSamplesLeaf: 5, Subsample: 1, Bins: 32, Seed: 1,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ml.GridSearchCVWorkers(factory, benchGrid, X, y, 3, rand.New(rand.NewSource(9)), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// paperShapeData mimics the cardinality profile of the paper's 302 HLS
// features as binned for the kept predictor: 99 binary, 61 three-valued
// and 37 four-valued columns, then 105 integer columns with 5 to 18
// levels. That bins into 2.0k histogram slots (the kept predictor's
// features use 1.7k) where a fixed 64-bin stride would allocate 19.3k.
// Every column is a small-integer count with heavy ties, as resource and
// fan-in counts are.
func paperShapeData(n int) ([][]float64, []float64) {
	const d = 302
	levels := make([]int, d)
	for j := range levels {
		switch {
		case j < 99:
			levels[j] = 2
		case j < 160:
			levels[j] = 3
		case j < 197:
			levels[j] = 4
		default:
			levels[j] = 5 + j%14
		}
	}
	rng := rand.New(rand.NewSource(78))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(rng.Intn(levels[j]))
		}
		X[i] = row
		y[i] = 0.5*row[3] + row[120] + 0.1*row[210]*row[260] + 0.3*row[299] + 0.2*rng.NormFloat64()
	}
	return X, y
}

// BenchmarkFitPaperShape fits the production GBRT shape (depth 5, leaf 8,
// row subsample 0.8, 64 bins) with fewer trees, on a paper-sized matrix:
// the case where compact per-feature histograms matter, since most
// features use a handful of their 64 bins.
func BenchmarkFitPaperShape(b *testing.B) {
	X, y := paperShapeData(8000)
	cfg := Model{NumTrees: 20, LearningRate: 0.08, MaxDepth: 5, MinSamplesLeaf: 8, Subsample: 0.8, FeatureFrac: 1, Bins: 64, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := cfg
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictPaperShape evaluates the production predictor's shape:
// three 200-tree depth-5 ensembles (V, H and Avg, as core.Train fits them
// from one Prebin) compiled together over the paper-sized columns, on 1,000
// rows none of them was fitted on. Shallow ensembles on a few dozen
// columns hide the cost of a tree walk's data-dependent branches; this
// shape does not.
func BenchmarkPredictPaperShape(b *testing.B) {
	X, y := paperShapeData(3000)
	train, rows := X[:2000], X[2000:]
	targets := [][]float64{y[:2000], make([]float64, 2000), make([]float64, 2000)}
	for i, x := range train {
		targets[1][i] = x[7] + 0.4*x[150]*x[230] - 0.2*x[301]
		targets[2][i] = (targets[0][i] + targets[1][i]) / 2
	}
	cfg := Model{NumTrees: 200, LearningRate: 0.08, MaxDepth: 5, MinSamplesLeaf: 8, Subsample: 0.8, FeatureFrac: 1, Bins: 64, Seed: 1}
	prep := cfg.PrepareShared(train)
	ms := make([]*Model, len(targets))
	for k, t := range targets {
		m := cfg
		if err := m.FitShared(prep, train, t); err != nil {
			b.Fatal(err)
		}
		ms[k] = &m
	}
	ev, err := Compile(ms...)
	if err != nil {
		b.Fatal(err)
	}
	outs := [][]float64{make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.PredictInto(outs, rows, nil, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}
