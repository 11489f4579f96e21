// Feature importance (paper Sec. IV-B): train the GBRT on the paper's
// dataset, then report which individual features and which of the seven
// categories the ensemble actually splits on — reproducing the analysis
// behind Table V.
//
//	go run ./examples/feature_importance
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/ml/gbrt"
)

func main() {
	cfg := flow.DefaultConfig()
	ds, _, err := core.BuildDataset(bench.TrainingModules(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	filtered, removed := ds.FilterMarginal()
	fmt.Printf("dataset: %d samples (%d marginal removed)\n", filtered.Len(), removed)

	X, y := filtered.Matrix(dataset.Vertical)
	model := core.NewModel(core.GBRT, 11).(*gbrt.Model)
	if err := model.Fit(X, y); err != nil {
		log.Fatal(err)
	}
	imp := model.FeatureImportance()
	names := features.Names()
	cats := features.Categories()

	// Category shares.
	byCat := make([]float64, features.CategoryCount)
	for j, v := range imp {
		byCat[cats[j]] += v
	}
	fmt.Println("\nimportance share per category (vertical congestion):")
	order := make([]int, features.CategoryCount)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return byCat[order[a]] > byCat[order[b]] })
	for _, c := range order {
		fmt.Printf("  %-20s %6.1f%%\n", features.Category(c), 100*byCat[c])
	}

	// Top individual features.
	idx := make([]int, len(imp))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return imp[idx[a]] > imp[idx[b]] })
	fmt.Println("\ntop 15 individual features by split count:")
	for _, j := range idx[:15] {
		fmt.Printf("  %-34s %-20s %5.2f%%\n", names[j], cats[j], 100*imp[j])
	}
}
