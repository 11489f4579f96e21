package core

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/ir"
)

// FuzzPredictModule runs the whole design query on arbitrary bytes:
// ir.ParseText, then PredictModule with the kept predictor, then Hotspots.
// Whatever the parser accepts must be answered without a panic, or
// rejected with an error, and an answer must hold one prediction per op.
// The corpus starts from the text of two small catalog designs.
func FuzzPredictModule(f *testing.F) {
	for _, m := range []*ir.Module{bench.OpticalFlow(), bench.SpamFiltering()} {
		var buf bytes.Buffer
		if err := ir.WriteText(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	p := keptPredictor(f)
	cfg := flow.DefaultConfig()
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ir.ParseText(bytes.NewReader(in))
		if err != nil {
			return
		}
		preds, err := p.PredictModule(m, cfg)
		if err != nil {
			return
		}
		if len(preds) != m.NumOps() {
			t.Fatalf("%d predictions for %d ops", len(preds), m.NumOps())
		}
		Hotspots(preds)
	})
}
