package core

// Train and EvaluateSized fit their three targets at the same time
// (fitTargets). These tests hold both to an oracle kept here: the
// sequential loop they used before, which fits each target in turn with a
// plain Fit on the same scaled rows. Under -race they also cover the
// concurrent fits' shared reads of the scaled rows and GBRT's Prebin.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// equivDataset is a synthetic training set of n rows, 40 features wide to
// keep the -race run short, in unroll groups of four whose margin-placed
// replicas carry outlier labels, so the marginal filter has rows to remove.
func equivDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		f := make([]float64, 40)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		s := &dataset.Sample{
			Design: "synthetic", OpID: i, Features: f,
			VertPct:  25 + 4*f[0] - 2*f[3] + rng.NormFloat64(),
			HorizPct: 20 + 3*f[1] + rng.NormFloat64(),
			AvgPct:   22 + 2*f[0] + rng.NormFloat64(),
			Replica:  true, ReplicaRoot: i - i%4,
		}
		if i%8 == 3 {
			s.Margin, s.AvgPct = true, 1
		}
		ds.Samples = append(ds.Samples, s)
	}
	return ds
}

// seqFit is the oracle fit: one fresh quick model per target vector, each
// fitted in turn with a plain Fit.
func seqFit(t *testing.T, Xs, ys [][]float64, kind ModelKind, seed int64) []ml.Regressor {
	t.Helper()
	models := make([]ml.Regressor, len(ys))
	for i, y := range ys {
		m := NewModelSized(kind, seed, SizeQuick)
		if err := m.Fit(Xs, y); err != nil {
			t.Fatalf("oracle %v fit %d: %v", kind, i, err)
		}
		models[i] = m
	}
	return models
}

// oracleTrain is Train by the oracle fit, returned as saved bytes.
func oracleTrain(t *testing.T, ds *dataset.Dataset, opts TrainOptions) []byte {
	t.Helper()
	if opts.Filter {
		ds, _ = ds.FilterMarginal()
	}
	X, _ := ds.Matrix(dataset.Vertical)
	scaler := ml.FitScaler(X)
	models := seqFit(t, scaler.Transform(X), targetVectors(ds), opts.Kind, opts.Seed)
	p := &Predictor{Kind: opts.Kind, scaler: scaler, models: make(map[dataset.Target]ml.Regressor)}
	for i, tg := range dataset.Targets {
		p.models[tg] = models[i]
	}
	if err := p.compile(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := p.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// oracleEval is EvaluateSized at SizeQuick by the oracle fit.
func oracleEval(t *testing.T, ds *dataset.Dataset, kind ModelKind, filter bool, seed int64) EvalRow {
	t.Helper()
	train, test := evalSplit(ds, filter, seed)
	Xtr, _ := train.Matrix(dataset.Vertical)
	Xte, _ := test.Matrix(dataset.Vertical)
	scaler := ml.FitScaler(Xtr)
	models := seqFit(t, scaler.Transform(Xtr), targetVectors(train), kind, seed)
	XteS := scaler.Transform(Xte)
	row := EvalRow{Kind: kind, Filtered: filter, Acc: make(map[dataset.Target]Accuracy)}
	for i, tg := range dataset.Targets {
		_, yte := test.Matrix(tg)
		pred := ml.PredictBatch(models[i], XteS)
		row.Acc[tg] = Accuracy{MAE: ml.MAE(yte, pred), MedAE: ml.MedAE(yte, pred)}
	}
	return row
}

func TestConcurrentFitsMatchSequential(t *testing.T) {
	ds := equivDataset(200, 11)
	if _, removed := ds.FilterMarginal(); removed == 0 {
		t.Fatal("the synthetic dataset has no marginal rows to filter")
	}
	for _, kind := range []ModelKind{GBRT, Linear, ANN} {
		opts := TrainOptions{Kind: kind, Filter: true, Seed: 3, Size: SizeQuick}
		p, err := Train(ds, opts)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		var got bytes.Buffer
		if err := p.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), oracleTrain(t, ds, opts)) {
			t.Errorf("%v: Train's saved predictor differs from the sequential fit's", kind)
		}

		for _, filter := range []bool{false, true} {
			row, err := EvaluateSized(ds, kind, filter, 5, SizeQuick)
			if err != nil {
				t.Fatalf("%v filter=%v: %v", kind, filter, err)
			}
			want := oracleEval(t, ds, kind, filter, 5)
			for _, tg := range dataset.Targets {
				g, w := row.Acc[tg], want.Acc[tg]
				if math.Float64bits(g.MAE) != math.Float64bits(w.MAE) ||
					math.Float64bits(g.MedAE) != math.Float64bits(w.MedAE) {
					t.Errorf("%v filter=%v %v: EvaluateSized %+v, sequential fit %+v", kind, filter, tg, g, w)
				}
			}
		}
	}
}
