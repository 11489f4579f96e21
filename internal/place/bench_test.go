package place

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/rtl"
)

// BenchmarkPlace times full annealing runs. "incremental" and "reference"
// place the test design with the production kernel and with the frozen
// original kept in equiv_test.go; the equivalence tests prove the two
// produce byte-identical placements, so their ns/op ratio is the kernel's
// speedup. "training" places the three training designs at the default
// move budget, seed 1 — the placement traffic of a dataset build. Run with
// -benchmem: the production inner loop allocates nothing.
func BenchmarkPlace(b *testing.B) {
	nl := testNetlist(b)
	dev := fpga.XC7Z020()
	opts := DefaultOptions()
	opts.Moves = 20000

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Place(nl, dev, rand.New(rand.NewSource(1)), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referencePlace(nl, dev, 1, opts)
		}
	})
	b.Run("training", func(b *testing.B) {
		var nls []*rtl.Netlist
		for _, m := range bench.TrainingModules() {
			s, err := hls.ScheduleModule(m, hls.DefaultClock())
			if err != nil {
				b.Fatal(err)
			}
			nls = append(nls, rtl.Elaborate(hls.BindModule(s)))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, nl := range nls {
				if _, err := Place(nl, dev, rand.New(rand.NewSource(1)), DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkMoveDelta isolates the per-move cost evaluation, the hottest
// call of the flow. Steady state it must not allocate.
func BenchmarkMoveDelta(b *testing.B) {
	nl := testNetlist(b)
	dev := fpga.XC7Z020()
	rng := rand.New(rand.NewSource(1))
	st := newState(nl, dev, DefaultOptions())
	st.initial(rng)
	n := len(nl.Cells)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ci := i % n
		np := st.randomTarget(rng, ci, dev.Cols)
		st.moveDelta(ci, np)
	}
}
