package ann

// Old-vs-new benchmarks for the ANN fast path: the *Ref benchmarks drive
// the frozen per-sample reference from equiv_test.go, the others the
// batched loop-interchanged kernels.

import (
	"testing"
)

func annBenchFixture() ([][]float64, []float64, [][]float64) {
	X, y := annEquivData(33, 256, 24)
	probe, _ := annEquivData(34, 128, 24)
	return X, y, probe
}

func BenchmarkFitRef(b *testing.B) {
	X, y, _ := annBenchFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &refANN{Hidden: []int{32, 16}, Epochs: 4, BatchSize: 32, LR: 1e-3, Seed: 1}
		if err := m.fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFit(b *testing.B) {
	X, y, _ := annBenchFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &Model{Hidden: []int{32, 16}, Epochs: 4, BatchSize: 32, LR: 1e-3, Seed: 1}
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictBatchRef(b *testing.B) {
	X, y, probe := annBenchFixture()
	m := &refANN{Hidden: []int{32, 16}, Epochs: 2, BatchSize: 32, LR: 1e-3, Seed: 1}
	if err := m.fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range probe {
			_ = m.predict(x)
		}
	}
}

func BenchmarkPredictBatchInto(b *testing.B) {
	X, y, probe := annBenchFixture()
	m := &Model{Hidden: []int{32, 16}, Epochs: 2, BatchSize: 32, LR: 1e-3, Seed: 1}
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(probe))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatchInto(out, probe)
	}
}
