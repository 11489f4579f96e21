package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
)

// keptArtifact is the benchmark's kept GBRT predictor. The test only reads
// it.
const keptArtifact = "../../perfbench/model/predictor.json"

// refArtifact is the kept artifact as plain JSON, walked by refPredict.
type refArtifact struct {
	Scaler struct{ Mean, Std []float64 }
	Models map[string]struct {
		Base  float64 `json:"base"`
		Trees [][]struct {
			F int     `json:"f"`
			T float64 `json:"t"`
			L int     `json:"l"`
			R int     `json:"r"`
			V float64 `json:"v"`
		} `json:"trees"`
	}
}

// refPredict scales raw with the scaler's expression and walks every tree
// of the target's model with x <= t, adding leaves in tree order: the
// evaluation the compiled layout must reproduce bit for bit.
func (a *refArtifact) refPredict(t dataset.Target, raw []float64) float64 {
	x := make([]float64, len(raw))
	for j, v := range raw {
		x[j] = (v - a.Scaler.Mean[j]) / a.Scaler.Std[j]
	}
	m := a.Models[t.String()]
	s := m.Base
	for _, nodes := range m.Trees {
		i := 0
		for nodes[i].F >= 0 {
			if x[nodes[i].F] <= nodes[i].T {
				i = nodes[i].L
			} else {
				i = nodes[i].R
			}
		}
		s += nodes[i].V
	}
	return s
}

// thresholds returns each feature's sorted split thresholds over all three
// models.
func (a *refArtifact) thresholds() map[int][]float64 {
	out := map[int][]float64{}
	for _, m := range a.Models {
		for _, nodes := range m.Trees {
			for _, nd := range nodes {
				if nd.F >= 0 {
					out[nd.F] = append(out[nd.F], nd.T)
				}
			}
		}
	}
	for _, ts := range out {
		sort.Float64s(ts)
	}
	return out
}

// preimages returns raw values near want*std+mean that scale to exactly
// want (there may be none), searching a few ulps on each side.
func preimages(want, mean, std float64) []float64 {
	var out []float64
	v := want*std + mean
	for k := 0; k < 8; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	for k := 0; k < 17; k++ {
		if (v-mean)/std == want {
			out = append(out, v)
		}
		v = math.Nextafter(v, math.Inf(1))
	}
	return out
}

// boundaryRows builds rows whose features sit on the edges of the split
// tests: every feature cycles through each of its thresholds, the next
// float on either side of each, ±0, ±Inf and NaN, all as scaled values
// (raw values found by preimages; with an identity scaler they are the
// values themselves). Features start their cycles at random offsets so
// rows mix the cases.
func boundaryRows(a *refArtifact, rng *rand.Rand) [][]float64 {
	cands := make([][]float64, features.NumFeatures)
	ths := a.thresholds()
	mean, std := a.Scaler.Mean, a.Scaler.Std
	rows := 0
	for j := range cands {
		scaled := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
		for _, t := range ths[j] {
			scaled = append(scaled, t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1)))
		}
		c := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), mean[j]}
		for _, s := range scaled {
			c = append(c, preimages(s, mean[j], std[j])...)
		}
		rng.Shuffle(len(c), func(x, y int) { c[x], c[y] = c[y], c[x] })
		cands[j] = c
		rows = max(rows, len(c))
	}
	out := make([][]float64, rows)
	for i := range out {
		row := make([]float64, features.NumFeatures)
		for j, c := range cands {
			row[j] = c[i%len(c)]
		}
		out[i] = row
	}
	return out
}

// randomRows draws raw rows around each feature's training distribution,
// half of them rounded to integers as the count features are.
func randomRows(a *refArtifact, rng *rand.Rand, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, features.NumFeatures)
		for j := range row {
			v := a.Scaler.Mean[j] + a.Scaler.Std[j]*1.5*rng.NormFloat64()
			if i%2 == 0 {
				v = math.Round(v)
			}
			row[j] = v
		}
		out[i] = row
	}
	return out
}

// requireRefAnswers checks PredictBatchInto (whole batch and odd-length
// prefixes, which exercise the 4-row blocks' tails) and PredictSample
// against the reference walk, bit for bit.
func requireRefAnswers(t *testing.T, name string, p *Predictor, a *refArtifact, rows [][]float64) {
	t.Helper()
	want := make([][3]float64, len(rows))
	for i, r := range rows {
		for k, tg := range dataset.Targets {
			want[i][k] = a.refPredict(tg, r)
		}
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, n := range []int{len(rows), 1, 3, 5, 67} {
		n = min(n, len(rows))
		v, h, av := make([]float64, n), make([]float64, n), make([]float64, n)
		if err := p.PredictBatchInto(v, h, av, rows[:n]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !same(v[i], want[i][0]) || !same(h[i], want[i][1]) || !same(av[i], want[i][2]) {
				t.Fatalf("%s: batch of %d, row %d: got %v/%v/%v, reference %v", name, n, i, v[i], h[i], av[i], want[i])
			}
		}
	}
	for i, r := range rows {
		v, h, av := p.PredictSample(r)
		if !same(v, want[i][0]) || !same(h, want[i][1]) || !same(av, want[i][2]) {
			t.Fatalf("%s: sample %d: got %v/%v/%v, reference %v", name, i, v, h, av, want[i])
		}
	}
}

// TestKeptArtifactEquivalence holds the compiled GBRT evaluator to a plain
// x <= t walk of the kept artifact's JSON trees, on random rows and on rows
// set to every split threshold, its neighbouring floats, ±0, ±Inf and NaN.
// It runs once with the artifact's scaler and once with an identity
// scaler, where every boundary value reaches the trees exactly.
func TestKeptArtifactEquivalence(t *testing.T) {
	raw, err := os.ReadFile(keptArtifact)
	if err != nil {
		t.Fatal(err)
	}
	var art refArtifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPredictor(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if p.gbrt == nil {
		t.Fatal("kept artifact did not compile a joint GBRT evaluator")
	}
	rng := rand.New(rand.NewSource(1))
	rows := append(randomRows(&art, rng, 300), boundaryRows(&art, rng)...)
	requireRefAnswers(t, "kept scaler", p, &art, rows)

	// The same trees behind an identity scaler: (v-0)/1 is v for every
	// float, -0 and NaN included.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for j := range art.Scaler.Mean {
		art.Scaler.Mean[j], art.Scaler.Std[j] = 0, 1
	}
	if doc["scaler"], err = json.Marshal(art.Scaler); err != nil {
		t.Fatal(err)
	}
	ident, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := LoadPredictor(bytes.NewReader(ident))
	if err != nil {
		t.Fatal(err)
	}
	requireRefAnswers(t, "identity scaler", ip, &art, boundaryRows(&art, rng))
}
