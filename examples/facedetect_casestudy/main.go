// Face Detection case study (paper Sec. IV-C): train the congestion
// predictor once, then walk the paper's two-step resolution — detect the
// hotspot in the baseline from HLS information alone, remove function
// inlining, detect the residual hotspot at the classifier inputs, replicate
// the shared input data — validating each step with one real
// place-and-route run.
//
//	go run ./examples/facedetect_casestudy
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
)

func main() {
	cfg := flow.DefaultConfig()

	fmt.Println("== training phase: one full C-to-FPGA run per training design ==")
	ds, _, err := core.BuildDataset(bench.TrainingModules(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d samples, %.2f%% marginal operations filtered\n",
		ds.Len(), 100*ds.MarginalFraction())
	pred, err := core.Train(ds, core.TrainOptions{
		Kind: core.GBRT, Filter: true, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	steps := []struct {
		name string
		dir  bench.Directives
		note string
	}{
		{"Baseline", bench.WithDirectives(),
			"all directives on: inlined cascade, unrolled scan, partitioned window"},
		{"Not Inline", bench.NotInline(),
			"step 1: remove function inlining from the cascade"},
		{"Replication", bench.Replication(),
			"step 2: replicate the shared window data per classifier"},
	}
	for _, st := range steps {
		m := bench.FaceDetection(st.dir)
		fmt.Printf("\n== %s — %s ==\n", st.name, st.note)

		// Prediction phase: HLS information only, no placement or routing.
		preds, err := pred.PredictModule(m, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("predicted hottest source regions (from HLS IR only):")
		for i, h := range core.Hotspots(preds) {
			if i >= 5 {
				break
			}
			fmt.Printf("  %-22s ops=%-4d predicted maxAvg=%6.1f%%\n", h.Loc, h.Ops, h.MaxAvg)
		}

		// Validation: one real implementation run, as the paper's Table VI.
		res, err := flow.Run(m, cfg)
		if err != nil {
			log.Fatal(err)
		}
		p := res.Perf(st.name)
		fmt.Printf("actual PAR: WNS=%7.3f ns  Fmax=%5.1f MHz  latency=%d  maxV=%6.1f%%  maxH=%6.1f%%  congested CLBs=%d\n",
			p.WNS, p.FmaxMHz, p.LatencyCycles, p.MaxVertPct, p.MaxHorizPct, p.CongestedCLBs)
	}
	fmt.Println("\ncongestion resolved at the source level without iterating the RTL flow.")
}
