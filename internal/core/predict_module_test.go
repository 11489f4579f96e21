package core

// Tests for PredictModule's chunked extract-then-predict: its answers must
// equal one whole-matrix batch bit for bit on both sides of every chunk
// boundary, and one query must allocate less than the whole feature matrix
// it no longer builds.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
)

func keptPredictor(t *testing.T) *Predictor {
	t.Helper()
	raw, err := os.ReadFile(keptArtifact)
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadPredictor(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chainModule builds a one-function design of exactly n ops: a port, then
// a chain of mixed-kind, mixed-width ops, each reading the previous op and
// the port.
func chainModule(n int) *ir.Module {
	m := ir.NewModule(fmt.Sprintf("chain_%d", n))
	b := ir.NewBuilder(m.NewFunction("top")).At("chain.cpp", 1)
	p := b.Port("p", 32)
	prev := p
	kinds := []ir.OpKind{ir.KindAdd, ir.KindMul, ir.KindXor, ir.KindSub, ir.KindShl}
	for i := 1; i < n; i++ {
		b.Line(1 + i/8)
		prev = b.Op(kinds[i%len(kinds)], 8+i%25, prev, p)
	}
	return m
}

// wholeMatrixPredict is PredictModule without chunking: Vector per op, then
// one PredictBatchInto over the whole feature matrix.
func wholeMatrixPredict(t *testing.T, p *Predictor, m *ir.Module, cfg flow.Config) []OpPrediction {
	t.Helper()
	sched, err := hls.ScheduleModule(m, cfg.Clock)
	if err != nil {
		t.Fatal(err)
	}
	bind := hls.BindModule(sched)
	ex := features.NewExtractor(m, sched, bind, graph.Build(m, bind), cfg.Dev)
	ops := m.AllOps()
	feats := make([][]float64, len(ops))
	for i, o := range ops {
		feats[i] = ex.Vector(o)
	}
	vert := make([]float64, len(ops))
	horiz := make([]float64, len(ops))
	avg := make([]float64, len(ops))
	if err := p.PredictBatchInto(vert, horiz, avg, feats); err != nil {
		t.Fatal(err)
	}
	out := make([]OpPrediction, len(ops))
	for i, o := range ops {
		out[i] = OpPrediction{Op: o, VertPct: vert[i], HorizPct: horiz[i], AvgPct: avg[i]}
	}
	return out
}

func TestPredictModuleChunksMatchWholeMatrix(t *testing.T) {
	lin, err := Train(batchDataset(60, 3), TrainOptions{Kind: Linear, Seed: 1, Size: SizeQuick})
	if err != nil {
		t.Fatal(err)
	}
	preds := []struct {
		name string
		p    *Predictor
	}{{"kept gbrt", keptPredictor(t)}, {"linear", lin}}
	var mods []*ir.Module
	for _, n := range []int{1, predictChunk - 1, predictChunk, predictChunk + 1, 2*predictChunk + 1} {
		m := chainModule(n)
		if m.NumOps() != n {
			t.Fatalf("chainModule(%d) has %d ops", n, m.NumOps())
		}
		mods = append(mods, m)
	}
	mods = append(mods, bench.FaceDetection(bench.NotInline()))
	cfg := flow.DefaultConfig()
	for _, pr := range preds {
		for _, m := range mods {
			got, err := pr.p.PredictModule(m, cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", pr.name, m.Name, err)
			}
			want := wholeMatrixPredict(t, pr.p, m, cfg)
			if len(got) != len(want) {
				t.Fatalf("%s on %s: %d predictions, want %d", pr.name, m.Name, len(got), len(want))
			}
			bits := math.Float64bits
			for i := range want {
				g, w := got[i], want[i]
				if g.Op != w.Op || bits(g.VertPct) != bits(w.VertPct) ||
					bits(g.HorizPct) != bits(w.HorizPct) || bits(g.AvgPct) != bits(w.AvgPct) {
					t.Fatalf("%s on %s: op %d predicted %+v, whole matrix %+v", pr.name, m.Name, i, g, w)
				}
			}
		}
	}
}

// TestPredictModuleAllocatesLessThanFeatureMatrix is the memory guard of
// the chunked path: one query on the largest Face Detection variant must
// allocate less in total than the ops × 302 float64 matrix alone. It must
// not run in parallel: TotalAlloc counts every goroutine's allocation.
func TestPredictModuleAllocatesLessThanFeatureMatrix(t *testing.T) {
	p := keptPredictor(t)
	m := bench.FaceDetection(bench.Replication())
	cfg := flow.DefaultConfig()
	if _, err := p.PredictModule(m, cfg); err != nil { // warm the pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := p.PredictModule(m, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	matrix := uint64(m.NumOps()) * features.NumFeatures * 8
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d ops: PredictModule allocated %.1f MB, the feature matrix is %.1f MB",
		m.NumOps(), float64(got)/1e6, float64(matrix)/1e6)
	if got >= matrix {
		t.Fatalf("PredictModule allocated %d B, not less than the %d B feature matrix", got, matrix)
	}
}
