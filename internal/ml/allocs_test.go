package ml_test

// Steady-state allocation guards for the serving fast path: once pools
// and model state are warm, batch prediction, metric evaluation and row
// standardization must not allocate at all.

import (
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/ann"
	"repro/internal/ml/gbrt"
	"repro/internal/ml/lasso"
)

func allocFixture(t *testing.T) ([][]float64, []float64, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	n, d := 120, 8
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = row[0] - 0.5*row[1] + 0.1*rng.NormFloat64()
	}
	return X, y, X[:40]
}

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race: sync.Pool randomly drops Puts")
	}
	fn() // warm pools and lazily-grown scratch
	if avg := testing.AllocsPerRun(50, fn); avg != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, avg)
	}
}

func TestPredictBatchIntoZeroAlloc(t *testing.T) {
	X, y, probe := allocFixture(t)
	out := make([]float64, len(probe))

	gm := &gbrt.Model{NumTrees: 10, LearningRate: 0.2, MaxDepth: 3, MinSamplesLeaf: 4, Subsample: 1, Bins: 16}
	if err := gm.Fit(X, y); err != nil {
		t.Fatalf("gbrt fit: %v", err)
	}
	requireZeroAllocs(t, "gbrt.PredictBatchInto", func() { gm.PredictBatchInto(out, probe) })

	lm := lasso.New(0.01)
	if err := lm.Fit(X, y); err != nil {
		t.Fatalf("lasso fit: %v", err)
	}
	requireZeroAllocs(t, "lasso.PredictBatchInto", func() { lm.PredictBatchInto(out, probe) })

	am := &ann.Model{Hidden: []int{8}, Epochs: 2, BatchSize: 32, LR: 1e-3}
	if err := am.Fit(X, y); err != nil {
		t.Fatalf("ann fit: %v", err)
	}
	requireZeroAllocs(t, "ann.PredictBatchInto", func() { am.PredictBatchInto(out, probe) })

	// The generic dispatcher adds nothing on top of the models' paths.
	requireZeroAllocs(t, "ml.PredictBatchInto", func() { ml.PredictBatchInto(gm, probe, out) })
}

func TestMetricAndScalerZeroAlloc(t *testing.T) {
	X, y, _ := allocFixture(t)
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = y[i] * 1.01
	}
	requireZeroAllocs(t, "ml.MedAE", func() { ml.MedAE(y, pred) })
	requireZeroAllocs(t, "ml.MAE", func() { ml.MAE(y, pred) })

	s := ml.FitScaler(X)
	dst := make([]float64, len(X[0]))
	requireZeroAllocs(t, "Scaler.TransformRowInto", func() { s.TransformRowInto(dst, X[0]) })

	var m ml.Matrix
	s.TransformRowsInto(&m, X) // allocate once
	requireZeroAllocs(t, "Scaler.TransformRowsInto", func() { s.TransformRowsInto(&m, X) })
}

func TestMatrixReuseZeroAlloc(t *testing.T) {
	X, y, _ := allocFixture(t)
	full := ml.MatrixFromRows(X)
	idx := make([]int, 60)
	for i := range idx {
		idx[i] = i * 2
	}
	var gx ml.Matrix
	gy := make([]float64, 0, len(idx))
	gx.Gather(full, idx) // size the backing array
	requireZeroAllocs(t, "Matrix.Gather", func() { gx.Gather(full, idx) })
	requireZeroAllocs(t, "GatherVec", func() { gy = ml.GatherVec(gy, y, idx) })
}

// TestGBRTEvaluatorZeroAlloc guards the compiled GBRT paths the predictor
// serves from: single-row Predict, and several models evaluated jointly
// over rows scaled and binned in one pass.
func TestGBRTEvaluatorZeroAlloc(t *testing.T) {
	X, y, probe := allocFixture(t)
	var ms []*gbrt.Model
	for k := 0; k < 3; k++ {
		m := &gbrt.Model{NumTrees: 10, LearningRate: 0.2, MaxDepth: 3 + k, MinSamplesLeaf: 4, Subsample: 1, Bins: 16}
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("gbrt fit: %v", err)
		}
		ms = append(ms, m)
	}
	requireZeroAllocs(t, "gbrt.Predict", func() { ms[0].Predict(probe[0]) })
	ev, err := gbrt.Compile(ms...)
	if err != nil {
		t.Fatal(err)
	}
	s := ml.FitScaler(X)
	outs := [][]float64{make([]float64, len(probe)), make([]float64, len(probe)), make([]float64, len(probe))}
	requireZeroAllocs(t, "gbrt.Evaluator.PredictInto", func() { ev.PredictInto(outs, probe, s.Mean, s.Std) })
}
