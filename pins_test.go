package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/store"
)

// TestDatasetPin rebuilds the paper's training dataset the way the train
// benchmark does — bench.TrainingModules under the default flow at seed 1,
// core.LabelRuns label runs, the default retry policy — and checks it
// against the sample count and dataset sha256 pinned in
// perfbench/model/pins.json. It then fits the benchmark's predictor on it
// (filtered GBRT, seed 1) and checks the saved artifact's sha256 against
// the same file. A change that alters the dataset or the fit must arrive
// with a deliberate repin.
func TestDatasetPin(t *testing.T) {
	raw, err := os.ReadFile("perfbench/model/pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins struct {
		Samples         int    `json:"samples"`
		DatasetSHA256   string `json:"dataset_sha256"`
		PredictorSHA256 string `json:"predictor_sha256"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatalf("pins.json: %v", err)
	}

	cfg := flow.DefaultConfig()
	cfg.Seed = 1
	ds, _, _, err := core.BuildDatasetContext(context.Background(), bench.TrainingModules(), cfg,
		core.BuildOptions{LabelRuns: core.LabelRuns, Retry: flow.DefaultRetryPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != pins.Samples {
		t.Errorf("dataset has %d samples, pinned %d", ds.Len(), pins.Samples)
	}
	sum := sha256.Sum256(store.EncodeDataset(ds))
	if got := hex.EncodeToString(sum[:]); got != pins.DatasetSHA256 {
		t.Errorf("dataset sha256 %s, pinned %s", got, pins.DatasetSHA256)
	}

	if raceEnabled {
		t.Skip("the full-size GBRT fit takes minutes under the race detector; the no-race run checks the predictor pin")
	}
	pred, err := core.Train(ds, core.TrainOptions{Kind: core.GBRT, Filter: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var art bytes.Buffer
	if err := pred.Save(&art); err != nil {
		t.Fatal(err)
	}
	sum = sha256.Sum256(art.Bytes())
	if got := hex.EncodeToString(sum[:]); got != pins.PredictorSHA256 {
		t.Errorf("predictor sha256 %s, pinned %s", got, pins.PredictorSHA256)
	}
}
