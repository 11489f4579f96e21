package core

// Tests for PredictModule's chunked, deduplicating extract-then-predict:
// its answers must equal one whole-matrix batch bit for bit on both sides
// of every chunk boundary, rows share a slot only when their bits are
// equal, a replicated design evaluates only its distinct rows, one query
// must allocate less than the whole feature matrix it no longer builds, a
// repeated query reuses the chunk buffer, and concurrent queries sharing
// one Predictor answer as sequential ones do.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
)

func keptPredictor(t testing.TB) *Predictor {
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
	nn, err := Train(batchDataset(60, 3), TrainOptions{Kind: ANN, Seed: 1, Size: SizeQuick})
	if err != nil {
		t.Fatal(err)
	}
	preds := []struct {
		name string
		p    *Predictor
	}{{"kept gbrt", keptPredictor(t)}, {"linear", lin}, {"ann", nn}}
	cfg := flow.DefaultConfig()
	var mods []*ir.Module
	for _, n := range []int{1, predictChunk - 1, predictChunk, predictChunk + 1, 2*predictChunk + 1} {
		m := chainModule(n)
		if m.NumOps() != n {
			t.Fatalf("chainModule(%d) has %d ops", n, m.NumOps())
		}
		mods = append(mods, m)
	}
	// The longest chain must hold more than one chunk of distinct rows, or
	// the mid-module flush never runs.
	if rows := evaluatedRows(t, preds[0].p, mods[len(mods)-1], cfg); rows <= predictChunk {
		t.Fatalf("chainModule(%d) evaluates %d rows, want more than predictChunk (%d)",
			2*predictChunk+1, rows, predictChunk)
	}
	mods = append(mods, bench.FaceDetection(bench.NotInline()))
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

// evaluatedRows is how many feature rows PredictModule evaluates for m.
func evaluatedRows(t *testing.T, p *Predictor, m *ir.Module, cfg flow.Config) int {
	t.Helper()
	ex, err := moduleExtractor(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := m.AllOps()
	_, rows, err := p.predictOps(ex, ops, querySpans(len(ops)))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestRowSlotsMatchExactBits(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	rows := [][]float64{
		{1, 2, 0},
		{1, 2, math.Copysign(0, -1)}, // −0 where row 0 has +0
		{1, nan1, 0},
		{1, nan2, 0}, // another NaN payload
		{1, 2, 0},    // row 0 again
		{1, nan1, 0}, // row 2 again, same payload
		{1, 2, math.Copysign(0, -1)},
	}
	want := []int{0, 1, 2, 3, 0, 2, 1}
	rs := make(rowSlots)
	for k, row := range rows {
		if got := rs.slot(row, int32(k)); int(got) != want[k] {
			t.Errorf("row %d %v: slot %d, want %d", k, row, got, want[k])
		}
	}
	clear(rs)
	if got := rs.slot(rows[4], 4); got != 4 {
		t.Errorf("after clear: slot %d, want the row's own 4", got)
	}
}

// TestPredictModuleEvaluatesDistinctRows pins the saving the dedupe makes
// on the replicated Face Detection design: its 6,642 ops have 55 distinct
// feature rows, and those are all PredictModule evaluates in one span.
// Split into spans, each span evaluates its own distinct rows, so a row
// that recurs in two spans is evaluated twice: the count must equal the
// sum of every span's distinct rows, found by a sequential reference.
func TestPredictModuleEvaluatesDistinctRows(t *testing.T) {
	m := bench.FaceDetection(bench.Replication())
	if got := m.NumOps(); got != 6642 {
		t.Fatalf("FaceDetection(Replication()) has %d ops, want 6642", got)
	}
	p := keptPredictor(t)
	cfg := flow.DefaultConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := evaluatedRows(t, p, m, cfg); got != 55 {
		t.Fatalf("PredictModule evaluated %d rows for %d ops, want 55", got, m.NumOps())
	}

	ex, err := moduleExtractor(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := m.AllOps()
	for _, spans := range []int{2, 4} {
		want := 0
		for i := 0; i < spans; i++ {
			distinct := map[string]bool{}
			for _, o := range ops[i*len(ops)/spans : (i+1)*len(ops)/spans] {
				distinct[string(rowKey(ex.Vector(o)))] = true
			}
			if len(distinct) >= predictChunk {
				t.Fatalf("span %d of %d has %d distinct rows; the reference assumes one chunk", i, spans, len(distinct))
			}
			want += len(distinct)
		}
		_, got, err := p.predictOps(ex, ops, spans)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d spans: %d rows evaluated", spans, got)
		if got != want {
			t.Fatalf("%d spans evaluated %d rows, want the spans' %d distinct rows", spans, got, want)
		}
	}
}

// queryModules returns the eleven designs of perfbench's design-query
// workload: every catalog design with its directives, and Face Detection
// under the paper's three other directive sets.
func queryModules() map[string]*ir.Module {
	mods := map[string]*ir.Module{
		"face_detection.without_directives": bench.FaceDetection(bench.WithoutDirectives()),
		"face_detection.not_inline":         bench.FaceDetection(bench.NotInline()),
		"face_detection.replication":        bench.FaceDetection(bench.Replication()),
	}
	for name, gen := range bench.Catalog() {
		mods[name] = gen(bench.WithDirectives())
	}
	return mods
}

// TestPredictModuleSpansAnswerIdentically splits every design-query design
// into 1, 2 and 4 spans: the answers must be byte-identical, whatever the
// host's CPU count. Run it under -race: two spans writing one buffer or
// one extractor scratch would show here.
func TestPredictModuleSpansAnswerIdentically(t *testing.T) {
	p := keptPredictor(t)
	cfg := flow.DefaultConfig()
	for name, m := range queryModules() {
		ex, err := moduleExtractor(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, spans := range []int{1, 2, 4} {
			preds, _, err := p.predictOps(ex, m.AllOps(), spans)
			if err != nil {
				t.Fatalf("%s, %d spans: %v", name, spans, err)
			}
			got := answerBytes(preds)
			if spans == 1 {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s: %d spans answer differently from one", name, spans)
			}
		}
	}
}

// TestQueryObjectCount pins the objects one design query allocates, IR
// text in and answer out, as runtime.MemStats.Mallocs counts them across
// every goroutine: about 1.25 times the count measured with slab-allocated
// parse, bind and graph structures. Allocating per op or per line again
// (an Op, a unit, a node or a line string each) breaks the bound on both
// designs. It must not run in parallel with other tests.
func TestQueryObjectCount(t *testing.T) {
	p := keptPredictor(t)
	cfg := flow.DefaultConfig()
	mods := queryModules()
	for _, c := range []struct {
		name  string
		limit uint64
	}{{"digit_spam", 4300}, {"face_detection.replication", 22300}} {
		var text strings.Builder
		if err := ir.WriteText(&text, mods[c.name]); err != nil {
			t.Fatal(err)
		}
		query := func() {
			m, err := ir.ParseText(strings.NewReader(text.String()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.PredictModule(m, cfg); err != nil {
				t.Fatal(err)
			}
		}
		query() // fill the Predictor's chunk buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		query()
		runtime.ReadMemStats(&after)
		got := after.Mallocs - before.Mallocs
		t.Logf("%s: %d objects, %d B", c.name, got, after.TotalAlloc-before.TotalAlloc)
		if got > c.limit {
			t.Errorf("%s: one query allocated %d objects, want at most %d", c.name, got, c.limit)
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

// TestPredictModuleReusesChunkScratch pins the cached chunk buffer: once a
// Predictor has answered one query, a second query on optical_flow (353
// ops, so a full predictChunk of rows would be allocated afresh) must
// allocate less than one predictChunk × 302 float64 matrix. It must not run
// in parallel: TotalAlloc counts every goroutine's allocation.
func TestPredictModuleReusesChunkScratch(t *testing.T) {
	p := keptPredictor(t)
	m := bench.OpticalFlow()
	cfg := flow.DefaultConfig()
	if _, err := p.PredictModule(m, cfg); err != nil { // fills the cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := p.PredictModule(m, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	chunk := uint64(predictChunk * features.NumFeatures * 8)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d ops: the second PredictModule allocated %d B, one chunk buffer is %d B", m.NumOps(), got, chunk)
	if got >= chunk {
		t.Fatalf("second PredictModule allocated %d B, not less than the %d B chunk buffer", got, chunk)
	}
}

// answerBytes encodes an answer as each op's ID and the bits of its three
// predictions, so answers on two instances of one design compare as bytes.
func answerBytes(preds []OpPrediction) []byte {
	out := make([]byte, 0, len(preds)*32)
	for _, pr := range preds {
		out = binary.LittleEndian.AppendUint64(out, uint64(pr.Op.ID))
		for _, v := range []float64{pr.VertPct, pr.HorizPct, pr.AvgPct} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// TestPredictModuleConcurrentQueriesMatchSequential shares one Predictor,
// and so its cached chunk buffer, among four goroutines that each query a
// different catalog design several times. Every answer must equal, byte
// for byte, that design's answer from a sequential query. Run it under
// -race: a buffer two queries wrote at once would show here.
func TestPredictModuleConcurrentQueriesMatchSequential(t *testing.T) {
	p := keptPredictor(t)
	cfg := flow.DefaultConfig()
	designs := []string{"optical_flow", "spam_filtering", "digit_recognition", "bnn"}
	gens := bench.Catalog()
	want := make([][]byte, len(designs))
	for i, name := range designs {
		preds, err := p.PredictModule(gens[name](bench.WithDirectives()), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[i] = answerBytes(preds)
	}
	const rounds = 3
	var wg sync.WaitGroup
	for i, name := range designs {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			m := gens[name](bench.WithDirectives())
			for r := 0; r < rounds; r++ {
				preds, err := p.PredictModule(m, cfg)
				if err != nil {
					t.Errorf("%s round %d: %v", name, r, err)
					return
				}
				if !bytes.Equal(answerBytes(preds), want[i]) {
					t.Errorf("%s round %d: concurrent answer differs from the sequential one", name, r)
					return
				}
			}
		}(i, name)
	}
	wg.Wait()
}
