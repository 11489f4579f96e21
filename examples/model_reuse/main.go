// Model reuse: train the congestion predictor once, persist it to disk,
// reload it (as a separate tool invocation would), and use it to screen a
// new design — the deployment workflow where training happens in CI and
// prediction happens interactively.
//
//	go run ./examples/model_reuse
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
)

func main() {
	cfg := flow.DefaultConfig()
	modelPath := filepath.Join(os.TempDir(), "congest_gbrt.json")

	// --- Training side (run once, e.g. in CI) -----------------------------
	fmt.Println("training phase: building dataset and fitting GBRT...")
	ds, _, err := core.BuildDataset(bench.TrainingModules(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ds.Summary())
	pred, err := core.Train(ds, core.TrainOptions{
		Kind: core.GBRT, Filter: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(modelPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := pred.Save(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	info, _ := os.Stat(modelPath)
	fmt.Printf("saved trained predictor to %s (%d KiB)\n\n", modelPath, info.Size()/1024)

	// --- Prediction side (every design iteration) -------------------------
	rf, err := os.Open(modelPath)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	loaded, err := core.LoadPredictor(rf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded %s predictor; screening a new design without PAR...\n", loaded.Kind)

	design := bench.FaceDetection(bench.NotInline())
	preds, err := loaded.PredictModule(design, cfg)
	if err != nil {
		log.Fatal(err)
	}
	hs := core.Hotspots(preds)
	fmt.Printf("top predicted congestion hotspots in %s:\n", design.Name)
	for i, h := range hs {
		if i >= 6 {
			break
		}
		fmt.Printf("  %-22s ops=%-4d predicted maxAvg=%6.1f%%\n", h.Loc, h.Ops, h.MaxAvg)
	}
	os.Remove(modelPath)
}
