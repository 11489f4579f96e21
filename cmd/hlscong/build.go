// The `build` command: run the dataset build in process and write its
// canonical encoded artifact. Any -workers count assembles the exact
// dataset a sequential `build -workers 1` produces.
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/store"
)

// buildFlags carries the build command's options from realMain.
type buildFlags struct {
	modules   string // comma-separated bench.Catalog names ("" = training set)
	labelRuns int    // placement seeds averaged per label
	out       string // encoded dataset artifact path ("" = don't write)
}

// buildModules resolves the -modules list against the benchmark catalog.
// An empty list means the paper's three training implementations.
func buildModules(names string) ([]*ir.Module, error) {
	if names == "" {
		return bench.TrainingModules(), nil
	}
	catalog := bench.Catalog()
	var mods []*ir.Module
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		gen, ok := catalog[name]
		if !ok {
			return nil, fmt.Errorf("unknown module %q (see bench.Catalog)", name)
		}
		mods = append(mods, gen(bench.WithDirectives()))
	}
	return mods, nil
}

// runBuild executes the `build` command: construct the dataset over the
// requested modules and write the canonical encoded artifact to -out. The
// artifact replaces -out atomically, and only when the build was not
// cancelled; a cancelled build leaves -out as it was.
func runBuild(ctx context.Context, cfg experiments.Config, bf buildFlags) error {
	mods, err := buildModules(bf.modules)
	if err != nil {
		return err
	}
	labelRuns := bf.labelRuns
	if labelRuns < 1 {
		labelRuns = core.LabelRuns
	}
	ds, _, summary, buildErr := core.BuildDatasetContext(ctx, mods, cfg.Flow, core.BuildOptions{
		LabelRuns: labelRuns,
		Retry:     flow.DefaultRetryPolicy(),
		Workers:   cfg.Workers,
	})
	fmt.Print(summary.Format())
	fmt.Printf("dataset: %d samples, %d features\n", ds.Len(), len(ds.FeatureNames))
	if bf.out != "" {
		// A cancelled build holds only the modules that finished in time:
		// writing it would replace a good artifact with a partial one.
		if err := ctx.Err(); err != nil {
			if buildErr == nil {
				buildErr = err
			}
			return fmt.Errorf("build interrupted, %s not written: %w", bf.out, buildErr)
		}
		payload := store.EncodeDataset(ds)
		if err := store.WriteFileAtomic(bf.out, payload); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes to %s\n", len(payload), bf.out)
	}
	return buildErr
}
