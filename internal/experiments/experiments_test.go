package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ir"
)

// benchModule returns a small design for plumbing tests.
func benchModule() *ir.Module {
	m := ir.NewModule("plumb")
	b := ir.NewBuilder(m.NewFunction("plumb_top"))
	p := b.Port("p", 16)
	b.Ret(b.Op(ir.KindNot, 16, p))
	return m
}

// quickCfg keeps experiment tests fast: shrunken models, fewer SA moves.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Quick = true
	cfg.Flow.Place.Moves = 8000
	return cfg
}

// TestExperimentConfigDefaults pins the experiment defaults the benchmarks
// rely on.
func TestExperimentConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Quick {
		t.Fatal("published numbers must not default to quick mode")
	}
	if cfg.Flow.Dev == nil || cfg.Flow.Dev.Name != "xc7z020clg484" {
		t.Fatal("default device must be the paper's xc7z020")
	}
	if cfg.Flow.Clock.PeriodNS != 10 {
		t.Fatal("default clock must be the paper's 100 MHz")
	}
}

func TestTableI(t *testing.T) {
	res, err := TableI(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	with, without := res.Rows[0], res.Rows[1]
	// The paper's qualitative claims: directives slash latency but raise
	// congestion and cost frequency.
	if with.LatencyCycles >= without.LatencyCycles {
		t.Errorf("directives did not reduce latency: %d vs %d",
			with.LatencyCycles, without.LatencyCycles)
	}
	if with.MaxCongPct <= without.MaxCongPct {
		t.Errorf("directives did not increase congestion: %.1f vs %.1f",
			with.MaxCongPct, without.MaxCongPct)
	}
	if with.FmaxMHz >= without.FmaxMHz {
		t.Errorf("directives did not cost frequency: %.1f vs %.1f",
			with.FmaxMHz, without.FmaxMHz)
	}
	out := res.Format()
	for _, want := range []string{"TABLE I", "With Directives", "Without Directives"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestTableVI(t *testing.T) {
	res, err := TableVI(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base, ni, rep := res.Rows[0], res.Rows[1], res.Rows[2]
	// Monotone congestion resolution: the congested-CLB count collapses.
	if !(base.CongestedCLBs > ni.CongestedCLBs && ni.CongestedCLBs > rep.CongestedCLBs) {
		t.Errorf("congested CLBs not monotone: %d -> %d -> %d",
			base.CongestedCLBs, ni.CongestedCLBs, rep.CongestedCLBs)
	}
	// Frequency recovers at each step.
	if !(base.FmaxMHz < ni.FmaxMHz && ni.FmaxMHz < rep.FmaxMHz) {
		t.Errorf("Fmax not monotone: %.1f -> %.1f -> %.1f",
			base.FmaxMHz, ni.FmaxMHz, rep.FmaxMHz)
	}
	// Latency stays roughly flat (within 15% of baseline).
	for i, d := range res.DeltaLatency {
		if float64(d) > 0.15*float64(base.LatencyCycles) {
			t.Errorf("step %d latency regressed by %d cycles", i, d)
		}
	}
	if !strings.Contains(res.Format(), "TABLE VI") {
		t.Error("format header missing")
	}
}

func TestFigure1(t *testing.T) {
	res, err := Figure1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) != 2 {
		t.Fatalf("maps = %d", len(res.Maps))
	}
	out := res.Format()
	if !strings.Contains(out, "with directives") || !strings.Contains(out, "without directives") {
		t.Error("figure titles missing")
	}
	if len(strings.Split(out, "\n")) < 40 {
		t.Error("rendered maps suspiciously short")
	}
}

func TestFigure5CenterHot(t *testing.T) {
	res, err := Figure5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.CenterMean <= res.MarginMean {
		t.Errorf("center %.1f not hotter than margin %.1f — Fig. 5 shape broken",
			res.CenterMean, res.MarginMean)
	}
	if len(res.Profile) != 8 {
		t.Errorf("profile bins = %d", len(res.Profile))
	}
	if !strings.Contains(res.Format(), "Fig. 5") {
		t.Error("format header missing")
	}
}

func TestFigure6(t *testing.T) {
	res, err := Figure6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) != 6 {
		t.Fatalf("maps = %d, want 3 steps x 2 directions", len(res.Maps))
	}
}

func TestTableIIIAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset flows in -short mode")
	}
	res, err := TableIII(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Impls) != 3 {
		t.Fatalf("implementations = %d", len(res.Impls))
	}
	for col := 0; col < 5; col++ {
		if !(res.Min[col] <= res.Avg[col] && res.Avg[col] <= res.Max[col]) {
			t.Errorf("column %d not ordered: min %v avg %v max %v",
				col, res.Min[col], res.Avg[col], res.Max[col])
		}
	}
	if res.Samples < 7000 {
		t.Errorf("only %d samples aggregated", res.Samples)
	}
	if !strings.Contains(res.Format(), "TABLE III") {
		t.Error("format header missing")
	}
}

func TestTableIVQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset build in -short mode")
	}
	res, err := TableIV(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 models x 2 filtering", len(res.Rows))
	}
	for _, r := range res.Rows {
		for _, tg := range dataset.Targets {
			if r.Acc[tg].MAE <= 0 {
				t.Errorf("%v/%v: zero MAE is implausible", r.Kind, tg)
			}
			if r.Acc[tg].MedAE > r.Acc[tg].MAE {
				t.Errorf("%v/%v: MedAE %v above MAE %v (label errors are right-skewed)",
					r.Kind, tg, r.Acc[tg].MedAE, r.Acc[tg].MAE)
			}
		}
	}
	if !strings.Contains(res.Format(), "TABLE IV") {
		t.Error("format header missing")
	}
}

// TestTableIVClaims checks the paper's Table IV claims at full size
// (DefaultConfig, seed 42) on the Linear and GBRT rows: GBRT is more
// accurate than Linear on every target, filtered and not; filtering lowers
// GBRT's Avg MAE; the filter removes 2–4% of the operations; and the
// dataset keeps its 8,098 samples. A full-size ANN row takes minutes, so
// ANN stays in TestTableIVQuick.
func TestTableIVClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size dataset build and fits in -short mode")
	}
	if raceEnabled {
		t.Skip("the full-size fits take many minutes under the race detector; the no-race run checks the claims")
	}
	cfg := DefaultConfig()
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 8098 {
		t.Errorf("dataset has %d samples, want 8098", ds.Len())
	}
	if f := ds.MarginalFraction(); f < 0.02 || f > 0.04 {
		t.Errorf("marginal-op fraction %.4f outside 2–4%%", f)
	}
	rows := map[bool]map[core.ModelKind]core.EvalRow{}
	for _, filter := range []bool{false, true} {
		rows[filter] = map[core.ModelKind]core.EvalRow{}
		for _, kind := range []core.ModelKind{core.Linear, core.GBRT} {
			start := time.Now()
			row, err := cfg.evaluate(ds, kind, filter)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v filtered=%v: MAE V %.2f  H %.2f  Avg %.2f (%.1f s)", kind, filter,
				row.Acc[dataset.Vertical].MAE, row.Acc[dataset.Horizontal].MAE, row.Acc[dataset.Average].MAE,
				time.Since(start).Seconds())
			rows[filter][kind] = row
		}
	}
	for _, filter := range []bool{false, true} {
		for _, tg := range dataset.Targets {
			lin, gb := rows[filter][core.Linear].Acc[tg].MAE, rows[filter][core.GBRT].Acc[tg].MAE
			if gb >= lin {
				t.Errorf("filtered=%v %v: GBRT MAE %.3f not below Linear's %.3f", filter, tg, gb, lin)
			}
		}
	}
	raw, filtered := rows[false][core.GBRT].Acc[dataset.Average].MAE, rows[true][core.GBRT].Acc[dataset.Average].MAE
	if filtered >= raw {
		t.Errorf("filtering raised GBRT's Avg MAE: %.3f → %.3f", raw, filtered)
	}
}

func TestTableVQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset build in -short mode")
	}
	res, err := TableV(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range dataset.Targets {
		rank := res.Ranking[tg]
		if len(rank) == 0 {
			t.Fatalf("no ranking for %v", tg)
		}
		total := 0.0
		for i, ci := range rank {
			total += ci.Importance
			if i > 0 && rank[i-1].Importance < ci.Importance {
				t.Fatal("ranking not sorted")
			}
		}
		if total < 0.99 || total > 1.01 {
			t.Errorf("%v importance sums to %v", tg, total)
		}
	}
	if !strings.Contains(res.Format(), "TABLE V") {
		t.Error("format header missing")
	}
}

func TestFigure6Format(t *testing.T) {
	res, err := Figure6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	for _, want := range []string{"Baseline", "Not Inline", "Replication", "Vertical", "Horizontal"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 6 format missing %q", want)
		}
	}
}

func TestRunOnce(t *testing.T) {
	cfg := quickCfg()
	res, err := RunOnce(benchModule(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil {
		t.Fatal("RunOnce returned incomplete result")
	}
}
