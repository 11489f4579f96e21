package ml

import (
	"fmt"
	"math/rand"
	"testing"
)

// slowModel is a deliberately CPU-heavy regressor standing in for the
// boosted/neural families, so the benchmark measures pool scaling rather
// than slice copying.
type slowModel struct {
	iters int
	w     []float64
}

func (m *slowModel) Fit(X [][]float64, y []float64) error {
	d := len(X[0])
	m.w = make([]float64, d)
	for it := 0; it < m.iters; it++ {
		for i, row := range X {
			pred := 0.0
			for j, v := range row {
				pred += m.w[j] * v
			}
			g := pred - y[i]
			for j, v := range row {
				m.w[j] -= 1e-3 * g * v
			}
		}
	}
	return nil
}

func (m *slowModel) Predict(x []float64) float64 {
	s := 0.0
	for j, v := range x {
		s += m.w[j] * v
	}
	return s
}

// BenchmarkGridSearchCV measures the (candidate × fold) grid evaluated
// sequentially vs on the worker pool. Workers sub-benchmark names carry
// the pool size so the two can be compared side by side.
func BenchmarkGridSearchCV(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n, d = 400, 24
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		y[i] = X[i][0] - 0.5*X[i][1] + rng.NormFloat64()*0.05
	}
	factory := func(p Params) Regressor { return &slowModel{iters: int(p["iters"])} }
	grid := Grid{"iters": {60, 80, 100, 120}}

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := GridSearchCVWorkers(factory, grid, X, y, 10, rand.New(rand.NewSource(42)), workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.Evaluated != 4 {
					b.Fatalf("evaluated %d candidates, want 4", res.Evaluated)
				}
			}
		})
	}
}
