package dataset

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/features"
	"repro/internal/ir"
)

// synthDataset builds a dataset with controlled replica groups.
func synthDataset(n int, rng *rand.Rand) *Dataset {
	d := New()
	for i := 0; i < n; i++ {
		s := &Sample{
			Design:      "synth",
			OpID:        i,
			Kind:        ir.KindAdd,
			Src:         ir.SourceLoc{File: "s.cpp", Line: 1 + i%7},
			Features:    make([]float64, features.NumFeatures),
			VertPct:     rng.Float64() * 100,
			HorizPct:    rng.Float64() * 100,
			ReplicaRoot: -1,
		}
		s.AvgPct = (s.VertPct + s.HorizPct) / 2
		s.Features[0] = float64(i)
		d.Samples = append(d.Samples, s)
	}
	return d
}

func TestTargetsAndLabels(t *testing.T) {
	s := &Sample{VertPct: 10, HorizPct: 30, AvgPct: 20}
	if s.Label(Vertical) != 10 || s.Label(Horizontal) != 30 || s.Label(Average) != 20 {
		t.Error("Label selection wrong")
	}
	if len(Targets) != 3 {
		t.Error("Targets must list three labels")
	}
	if Vertical.String() == Horizontal.String() {
		t.Error("target names must differ")
	}
}

func TestMatrixShape(t *testing.T) {
	d := synthDataset(10, rand.New(rand.NewSource(1)))
	X, y := d.Matrix(Vertical)
	if len(X) != 10 || len(y) != 10 {
		t.Fatal("matrix shape wrong")
	}
	for i := range X {
		if len(X[i]) != features.NumFeatures {
			t.Fatal("row width wrong")
		}
		if y[i] != d.Samples[i].VertPct {
			t.Fatal("labels misaligned")
		}
	}
}

func TestMergeAndLen(t *testing.T) {
	a := synthDataset(4, rand.New(rand.NewSource(1)))
	b := synthDataset(6, rand.New(rand.NewSource(2)))
	a.Samples = append(a.Samples, b.Samples...)
	if a.Len() != 10 {
		t.Fatalf("merged len = %d", a.Len())
	}
}

func TestMarginalFilterCriterion(t *testing.T) {
	d := New()
	// A replica group of 8 samples around label 50; two siblings at the
	// margin, one with a deviant low label (marginal), one close to the
	// median (kept).
	for i := 0; i < 8; i++ {
		s := &Sample{
			Design:      "d",
			OpID:        i,
			Features:    []float64{0},
			Replica:     true,
			ReplicaRoot: 100,
			AvgPct:      50,
		}
		switch i {
		case 0:
			s.Margin = true
			s.AvgPct = 10 // deviant low at margin -> marginal
		case 1:
			s.Margin = true
			s.AvgPct = 48 // margin but on-median -> kept
		case 2:
			s.Margin = false
			s.AvgPct = 5 // deviant but not at margin -> kept
		}
		d.Samples = append(d.Samples, s)
	}
	// A non-replica op at the margin with a tiny label -> kept.
	d.Samples = append(d.Samples, &Sample{
		Design: "d", OpID: 99, Features: []float64{0},
		Margin: true, ReplicaRoot: -1, AvgPct: 1,
	})
	marg := d.Marginal()
	wantMarginal := map[int]bool{0: true}
	for i, m := range marg {
		if m != wantMarginal[i] {
			t.Errorf("sample %d marginal = %v, want %v", i, m, wantMarginal[i])
		}
	}
	filtered, removed := d.FilterMarginal()
	if removed != 1 || filtered.Len() != d.Len()-1 {
		t.Errorf("removed %d, len %d", removed, filtered.Len())
	}
	if frac := d.MarginalFraction(); frac != 1.0/9.0 {
		t.Errorf("marginal fraction = %v", frac)
	}
}

// Property: filtering never removes non-replica samples and never grows
// the dataset.
func TestFilterProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := synthDataset(30, rng)
		// Randomly mark some replicas/margins.
		for _, s := range d.Samples {
			if rng.Intn(3) == 0 {
				s.Replica = true
				s.ReplicaRoot = rng.Intn(4)
			}
			s.Margin = rng.Intn(4) == 0
		}
		filtered, removed := d.FilterMarginal()
		if filtered.Len()+removed != d.Len() {
			return false
		}
		for _, s := range filtered.Samples {
			_ = s
		}
		// Re-filtering a filtered dataset with the same group medians can
		// remove more (medians shift), but it never grows.
		again, _ := filtered.FilterMarginal()
		return again.Len() <= filtered.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndSummary(t *testing.T) {
	d := synthDataset(40, rand.New(rand.NewSource(9)))
	st := d.Stats(Vertical)
	if !(st.Min <= st.Median && st.Median <= st.Max) {
		t.Errorf("stats not ordered: %+v", st)
	}
	if st.Std < 0 || st.Mean < st.Min || st.Mean > st.Max {
		t.Errorf("stats out of range: %+v", st)
	}
	out := d.Summary()
	for _, want := range []string{"40 samples", "synth", "Vertical", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	empty := New()
	if s := empty.Stats(Average); s.Mean != 0 {
		t.Error("empty stats not zero")
	}
}
