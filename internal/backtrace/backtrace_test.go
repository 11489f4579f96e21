package backtrace

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/ir"
)

func runSmall(t *testing.T) *flow.Result {
	t.Helper()
	m := ir.NewModule("small")
	b := ir.NewBuilder(m.NewFunction("f")).At("s.cpp", 1)
	p := b.Port("p", 16)
	a := b.Array("mem", 32, 16, 2)
	var outs []*ir.Op
	for i := 0; i < 10; i++ {
		b.Line(10 + i)
		v := b.Load(a, nil)
		outs = append(outs, b.Op(ir.KindAdd, 16, v, p))
	}
	b.Line(30)
	b.Ret(b.ReduceTree(ir.KindAdd, 16, outs))
	cfg := flow.DefaultConfig()
	cfg.Place.Moves = 4000
	res, err := flow.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTraceCoversEveryOpExactlyOnce(t *testing.T) {
	res := runSmall(t)
	traced := Trace(res)
	if len(traced) != res.Mod.NumOps() {
		t.Fatalf("traced %d ops, module has %d", len(traced), res.Mod.NumOps())
	}
	seen := make(map[int]bool)
	for _, tr := range traced {
		if seen[tr.Op.ID] {
			t.Fatalf("op %d traced twice", tr.Op.ID)
		}
		seen[tr.Op.ID] = true
	}
}

func TestTraceLabelsAreOnDieAndFinite(t *testing.T) {
	res := runSmall(t)
	for _, tr := range Trace(res) {
		if !res.Config.Dev.InBounds(tr.Tile) {
			t.Fatalf("op %v traced to off-die tile %v", tr.Op, tr.Tile)
		}
		if tr.VertPct < 0 || tr.HorizPct < 0 {
			t.Fatalf("negative congestion label")
		}
		want := (tr.VertPct + tr.HorizPct) / 2
		if diff := tr.AvgPct - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("avg label inconsistent")
		}
		if tr.Margin != res.Config.Dev.IsMargin(tr.Tile) {
			t.Fatalf("margin flag inconsistent with tile position")
		}
	}
}

func TestTraceMatchesPlacedCells(t *testing.T) {
	res := runSmall(t)
	for _, tr := range Trace(res) {
		cell := res.Netlist.CellOf.Get(tr.Op)
		if cell == nil {
			t.Fatalf("traced op %v has no cell", tr.Op)
		}
		if got := res.Placement.At(cell); got != tr.Tile {
			t.Fatalf("op %v traced to %v but its cell sits at %v", tr.Op, tr.Tile, got)
		}
	}
}

func TestHotspotsBySource(t *testing.T) {
	res := runSmall(t)
	hs := HotspotsBySource(Trace(res))
	if len(hs) == 0 {
		t.Fatal("no hotspots")
	}
	totalOps := 0
	for i, h := range hs {
		totalOps += h.Ops
		if i > 0 && hs[i-1].MaxAvg < h.MaxAvg {
			t.Fatal("hotspots not sorted by max congestion")
		}
		if h.Loc.IsZero() {
			t.Error("hotspot without source location")
		}
	}
	if totalOps != res.Mod.NumOps() {
		t.Errorf("hotspots cover %d ops, want %d", totalOps, res.Mod.NumOps())
	}
}

func TestTraceOnRealBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark trace in -short mode")
	}
	cfg := flow.DefaultConfig()
	m := bench.FaceDetection(bench.WithoutDirectives())
	res, err := flow.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced := Trace(res)
	if len(traced) != m.NumOps() {
		t.Fatalf("traced %d of %d ops", len(traced), m.NumOps())
	}
	// Some replica ops must exist and be marked for the filtering study.
	replicas := 0
	for _, tr := range traced {
		if tr.Op.IsReplica() {
			replicas++
		}
	}
	_ = replicas // without directives there is no unrolling; just exercise the path
}
