package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/gbrt"
	"repro/internal/ml/lasso"
)

// corpusPredictor hand-assembles a small valid predictor (Lasso weights,
// identity-ish scaler) so the fuzzer starts from an accepted payload
// without training anything.
func corpusPredictor() *Predictor {
	scaler := &ml.Scaler{
		Mean: make([]float64, features.NumFeatures),
		Std:  make([]float64, features.NumFeatures),
	}
	for j := range scaler.Std {
		scaler.Std[j] = 1
	}
	p := &Predictor{Kind: Linear, scaler: scaler, models: make(map[dataset.Target]ml.Regressor)}
	for i, t := range dataset.Targets {
		w := make([]float64, features.NumFeatures)
		w[i] = 0.5
		p.models[t] = &lasso.Model{Alpha: 0.01, Weights: w, Intercept: float64(i)}
	}
	return p
}

// corpusGBRT hand-assembles a small GBRT predictor artifact (unit scaler,
// one two-tree model per target) with tree substituted for the Average
// model's second tree, so the fuzzer also starts from accepted and broken
// tree shapes.
func corpusGBRT(tree string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"kind":%d,"num_features":%d,"scaler":{"Mean":[`, GBRT, features.NumFeatures)
	for j := 0; j < features.NumFeatures; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('0')
	}
	b.WriteString(`],"Std":[`)
	for j := 0; j < features.NumFeatures; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('1')
	}
	b.WriteString(`]},"models":{`)
	for i, t := range dataset.Targets {
		second := `[{"f":7,"t":-0.5,"l":1,"r":2},{"f":-1,"v":0.125},{"f":5,"t":2,"l":3,"r":4},{"f":-1,"v":-1},{"f":-1,"v":0.75}]`
		if t == dataset.Average {
			second = tree
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%q:{"max_depth":2,"base":%d,"trees":[[{"f":3,"t":0.5,"l":1,"r":2},{"f":-1,"v":0.25},{"f":-1,"v":-0.5}],%s]}`,
			t.String(), i, second)
	}
	b.WriteString("}}\n")
	return b.Bytes()
}

// chainTree is a tree of depth splits chained down their right children.
func chainTree(depth int) string {
	var b strings.Builder
	b.WriteByte('[')
	for k := 0; k < depth; k++ {
		fmt.Fprintf(&b, `{"f":%d,"t":%d,"l":%d,"r":%d},{"f":-1,"v":%d},`, k, k, 2*k+1, 2*k+2, k)
	}
	fmt.Fprintf(&b, `{"f":-1,"v":%d}]`, depth)
	return b.String()
}

// FuzzLoadPredictor feeds arbitrary bytes to the predictor loader:
// corrupted or truncated payloads must produce an error, never a panic,
// and any accepted predictor must survive a predict + save/load round-trip
// with finite outputs.
func FuzzLoadPredictor(f *testing.F) {
	var valid bytes.Buffer
	if err := corpusPredictor().Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":7,"num_features":302}`))
	f.Add([]byte(`{"kind":0,"num_features":302,"scaler":{"Mean":[0],"Std":[0]}}`))
	f.Add(bytes.Replace(valid.Bytes(), []byte("0.5"), []byte("1e999"), 1))
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(corpusGBRT(chainTree(4)))
	f.Add(corpusGBRT(`[{"f":0,"t":0.5,"l":0,"r":0}]`))
	f.Add(corpusGBRT(chainTree(gbrt.DepthLimit + 1)))

	probe := make([]float64, features.NumFeatures)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPredictor(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted predictor must be fully usable: finite predictions
		// and a clean save/load round-trip.
		v, h, a := p.PredictSample(probe)
		for _, x := range []float64{v, h, a} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("accepted predictor yields non-finite prediction (%v, %v, %v)", v, h, a)
			}
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("accepted predictor failed to save: %v", err)
		}
		if _, err := LoadPredictor(&buf); err != nil {
			t.Fatalf("round-trip of accepted predictor failed: %v", err)
		}
	})
}

// TestCorpusGBRTSeeds pins what the GBRT fuzz seeds start from: the
// well-formed artifact loads and scores, and the cyclic and over-deep ones
// are refused promptly instead of hanging the probe.
func TestCorpusGBRTSeeds(t *testing.T) {
	p, err := LoadPredictor(bytes.NewReader(corpusGBRT(chainTree(4))))
	if err != nil {
		t.Fatalf("hand-assembled GBRT predictor refused: %v", err)
	}
	row := make([]float64, features.NumFeatures)
	row[3], row[7], row[5], row[0] = 1, 0, 3, 0.5
	// V: base 0, then 1 > 0.5 goes right (-0.5), 0 > -0.5 goes right to
	// 3 > 2, right again (0.75). Avg: base 2, -0.5, then the chain: 0.5 > 0
	// goes right, f1 = 0 <= 1 goes left to leaf 1.
	if v, _, a := p.PredictSample(row); v != 0.25 || a != 2.5 {
		t.Errorf("PredictSample = V %v Avg %v, want 0.25 and 2.5", v, a)
	}
	for name, tree := range map[string]string{
		"self-loop": `[{"f":0,"t":0.5,"l":0,"r":0}]`,
		"too deep":  chainTree(gbrt.DepthLimit + 1),
	} {
		done := make(chan error, 1)
		go func() {
			_, err := LoadPredictor(bytes.NewReader(corpusGBRT(tree)))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: accepted", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: LoadPredictor did not return within 5 s", name)
		}
	}
}
