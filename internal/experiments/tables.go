package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/backtrace"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/ml/gbrt"
)

// ---------------------------------------------------------------------------
// Table I — performance comparison of Face Detection with and without HLS
// directives.

// TableIResult holds the two implementation rows.
type TableIResult struct {
	Rows []flow.PerfRow
}

// TableI runs Face Detection with the paper's directive bundle and without
// any directives through the complete flow.
func TableI(cfg Config) (*TableIResult, error) {
	var out TableIResult
	for _, c := range []struct {
		name string
		dir  bench.Directives
	}{
		{"With Directives", bench.WithDirectives()},
		{"Without Directives", bench.WithoutDirectives()},
	} {
		res, err := flow.Run(bench.FaceDetection(c.dir), cfg.Flow)
		if err != nil {
			return nil, fmt.Errorf("experiments: table I (%s): %w", c.name, err)
		}
		out.Rows = append(out.Rows, res.Perf(c.name))
	}
	return &out, nil
}

// Format renders the table in the paper's layout.
func (t *TableIResult) Format() string {
	var b strings.Builder
	b.WriteString("TABLE I. PERFORMANCE COMPARISON\n")
	fmt.Fprintf(&b, "%-20s %10s %14s %16s %18s\n",
		"Implementation", "WNS(ns)", "Max Freq.(MHz)", "Latency(cycles)", "Max Congestion(%)")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-20s %10.3f %14.1f %16.3g %18.2f\n",
			r.Name, r.WNS, r.FmaxMHz, float64(r.LatencyCycles), r.MaxCongPct)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table III — property summary of the benchmark implementations.

// TableIIIResult aggregates WNS/Fmax across the three implementations and
// the congestion metrics across all back-traced samples, mirroring the
// paper's Max/Min/Avg rows.
type TableIIIResult struct {
	Impls []flow.PerfRow // per-implementation timing rows

	// Max/Min/Avg of each column in paper order: WNS, Freq, Vertical
	// congestion, Horizontal congestion, Avg(V,H).
	Max, Min, Avg [5]float64

	Samples int
}

// TableIII runs the three dataset implementations and aggregates.
func TableIII(cfg Config) (*TableIIIResult, error) {
	out := &TableIIIResult{}
	for i := range out.Max {
		out.Max[i] = math.Inf(-1)
		out.Min[i] = math.Inf(1)
	}
	var sums [5]float64
	var wnsVals, freqVals []float64
	nSamples := 0
	for _, m := range bench.TrainingModules() {
		res, err := flow.Run(m, cfg.Flow)
		if err != nil {
			return nil, fmt.Errorf("experiments: table III (%s): %w", m.Name, err)
		}
		p := res.Perf(m.Name)
		out.Impls = append(out.Impls, p)
		wnsVals = append(wnsVals, p.WNS)
		freqVals = append(freqVals, p.FmaxMHz)
		for _, t := range backtrace.Trace(res) {
			vals := [3]float64{t.VertPct, t.HorizPct, t.AvgPct}
			for j, v := range vals {
				col := 2 + j
				if v > out.Max[col] {
					out.Max[col] = v
				}
				if v < out.Min[col] {
					out.Min[col] = v
				}
				sums[col] += v
			}
			nSamples++
		}
	}
	for _, v := range wnsVals {
		out.Max[0] = math.Max(out.Max[0], v)
		out.Min[0] = math.Min(out.Min[0], v)
		sums[0] += v
	}
	for _, v := range freqVals {
		out.Max[1] = math.Max(out.Max[1], v)
		out.Min[1] = math.Min(out.Min[1], v)
		sums[1] += v
	}
	for j := 0; j < 2; j++ {
		out.Avg[j] = sums[j] / float64(len(out.Impls))
	}
	for j := 2; j < 5; j++ {
		out.Avg[j] = sums[j] / float64(nSamples)
	}
	out.Samples = nSamples
	return out, nil
}

// Format renders the paper's Max/Min/Avg rows.
func (t *TableIIIResult) Format() string {
	var b strings.Builder
	b.WriteString("TABLE III. PROPERTY SUMMARY OF BENCHMARKS\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %16s %18s %14s\n",
		"Metrics", "WNS(ns)", "Freq.(MHz)", "Vertical Cong(%)", "Horizontal Cong(%)", "Avg. (V, H)(%)")
	row := func(name string, v [5]float64) {
		fmt.Fprintf(&b, "%-8s %10.3f %10.1f %16.2f %18.2f %14.2f\n",
			name, v[0], v[1], v[2], v[3], v[4])
	}
	row("Max", t.Max)
	row("Min", t.Min)
	row("Avg.", t.Avg)
	fmt.Fprintf(&b, "(%d back-traced CLB samples across %d implementations)\n",
		t.Samples, len(t.Impls))
	return b.String()
}

// ---------------------------------------------------------------------------
// Table IV — congestion estimation accuracy, the headline result.

// TableIVResult holds the six rows: {Linear, ANN, GBRT} x {not filtering,
// filtering}.
type TableIVResult struct {
	Rows             []core.EvalRow
	Samples          int
	MarginalFraction float64
}

// TableIV builds the dataset once and evaluates every model/filtering
// combination on the shared 80/20 split.
func TableIV(cfg Config) (*TableIVResult, error) {
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		return nil, fmt.Errorf("experiments: table IV: %w", err)
	}
	return TableIVOn(cfg, ds)
}

// TableIVOn evaluates Table IV on a pre-built dataset; TableIV passes it
// the paper dataset it has just built.
func TableIVOn(cfg Config, ds *dataset.Dataset) (*TableIVResult, error) {
	out := &TableIVResult{Samples: ds.Len(), MarginalFraction: ds.MarginalFraction()}
	for _, filter := range []bool{false, true} {
		for _, kind := range core.ModelKinds {
			row, err := cfg.evaluate(ds, kind, filter)
			if err != nil {
				return nil, fmt.Errorf("experiments: table IV: %w", err)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Format renders the table in the paper's layout.
func (t *TableIVResult) Format() string {
	var b strings.Builder
	b.WriteString("TABLE IV. CONGESTION ESTIMATION RESULTS\n")
	fmt.Fprintf(&b, "%-14s %-8s", "", "Models")
	for _, tg := range dataset.Targets {
		fmt.Fprintf(&b, " | %-11s MAE  MedAE", tg)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		group := "Not Filtering"
		if r.Filtered {
			group = "Filtering"
		}
		fmt.Fprintf(&b, "%-14s %-8s", group, r.Kind)
		for _, tg := range dataset.Targets {
			a := r.Acc[tg]
			fmt.Fprintf(&b, " | %17.2f %6.2f", a.MAE, a.MedAE)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(%d samples; marginal operations: %.2f%%)\n",
		t.Samples, 100*t.MarginalFraction)
	return b.String()
}

// ---------------------------------------------------------------------------
// Table V — important feature categories per congestion metric.

// CategoryImportance is one (category, importance share) pair.
type CategoryImportance struct {
	Category   features.Category
	Importance float64
}

// TableVResult ranks feature categories per target by GBRT split-count
// importance.
type TableVResult struct {
	Ranking map[dataset.Target][]CategoryImportance
}

// TableV trains a GBRT per congestion target on the filtered dataset and
// aggregates split-count feature importance by category.
func TableV(cfg Config) (*TableVResult, error) {
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		return nil, fmt.Errorf("experiments: table V: %w", err)
	}
	return TableVOn(cfg, ds)
}

// TableVOn computes Table V on a pre-built dataset.
func TableVOn(cfg Config, ds *dataset.Dataset) (*TableVResult, error) {
	filtered, _ := ds.FilterMarginal()
	size := core.SizeFull
	if cfg.Quick {
		size = core.SizeQuick
	}
	cats := features.Categories()
	out := &TableVResult{Ranking: make(map[dataset.Target][]CategoryImportance)}
	for _, tg := range dataset.Targets {
		X, y := filtered.Matrix(tg)
		m, ok := core.NewModelSized(core.GBRT, cfg.Seed, size).(*gbrt.Model)
		if !ok {
			return nil, fmt.Errorf("experiments: table V: GBRT model has unexpected type")
		}
		if err := m.Fit(X, y); err != nil {
			return nil, fmt.Errorf("experiments: table V (%s): %w", tg, err)
		}
		imp := m.FeatureImportance()
		byCat := make([]float64, features.CategoryCount)
		for j, v := range imp {
			byCat[cats[j]] += v
		}
		var rank []CategoryImportance
		for c := 0; c < features.CategoryCount; c++ {
			rank = append(rank, CategoryImportance{Category: features.Category(c), Importance: byCat[c]})
		}
		sort.Slice(rank, func(i, j int) bool { return rank[i].Importance > rank[j].Importance })
		out.Ranking[tg] = rank
	}
	return out, nil
}

// Format renders the top categories per metric like the paper's Table V.
func (t *TableVResult) Format() string {
	var b strings.Builder
	b.WriteString("TABLE V. IMPORTANT FEATURE CATEGORIES\n")
	fmt.Fprintf(&b, "%-6s", "Rank")
	for _, tg := range dataset.Targets {
		fmt.Fprintf(&b, " | %-28s", tg)
	}
	b.WriteString("\n")
	for rank := 0; rank < 4; rank++ {
		fmt.Fprintf(&b, "%-6d", rank+1)
		for _, tg := range dataset.Targets {
			r := t.Ranking[tg]
			if rank < len(r) {
				fmt.Fprintf(&b, " | %-19s (%5.1f%%)", r[rank].Category, 100*r[rank].Importance)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table VI — the case study: resolving Face Detection's congestion.

// TableVIResult holds the three case-study rows.
type TableVIResult struct {
	Rows []flow.PerfRow
	// DeltaLatency is each row's latency minus the baseline's.
	DeltaLatency []int64
}

// TableVI runs Baseline, Not Inline and Replication through the flow.
func TableVI(cfg Config) (*TableVIResult, error) {
	out := &TableVIResult{}
	var base int64
	for i, c := range []struct {
		name string
		dir  bench.Directives
	}{
		{"Baseline", bench.WithDirectives()},
		{"Not Inline", bench.NotInline()},
		{"Replication", bench.Replication()},
	} {
		res, err := flow.Run(bench.FaceDetection(c.dir), cfg.Flow)
		if err != nil {
			return nil, fmt.Errorf("experiments: table VI (%s): %w", c.name, err)
		}
		p := res.Perf(c.name)
		out.Rows = append(out.Rows, p)
		if i == 0 {
			base = p.LatencyCycles
		}
		out.DeltaLatency = append(out.DeltaLatency, p.LatencyCycles-base)
	}
	return out, nil
}

// Format renders the table in the paper's layout.
func (t *TableVIResult) Format() string {
	var b strings.Builder
	b.WriteString("TABLE VI. CASE STUDY: PERFORMANCE IMPROVEMENT\n")
	fmt.Fprintf(&b, "%-14s %10s %14s %12s %22s %20s\n",
		"Implementation", "WNS(ns)", "Max Freq.(MHz)", "dLatency", "Max Cong Vert,Hori(%)", "#Congested CLBs(>100%)")
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %10.3f %14.1f %+12d %11.2f,%9.2f %20d\n",
			r.Name, r.WNS, r.FmaxMHz, t.DeltaLatency[i], r.MaxVertPct, r.MaxHorizPct, r.CongestedCLBs)
	}
	return b.String()
}
