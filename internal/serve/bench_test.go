package serve

// Serving-path benchmarks. BenchmarkServePredict* drive ServeBytes — the
// exact hot path behind POST /predict, minus net/http — and report
// preds/sec. Run with GOMAXPROCS=1 to measure the single-core claim; the
// end-to-end serving figures come from `bash perfbench/run.sh`.

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ml"
)

var (
	benchPredOnce sync.Once
	benchPred     *core.Predictor
	benchPredErr  error
)

// keptModel is the GBRT predictor perfbench's serve-http workload serves
// (200 trees per target), read and never written.
const keptModel = "../../perfbench/model/predictor.json"

// benchPredictor loads the kept GBRT once per process: GBRT is the paper's
// headline model and the heaviest serving path, and the kept one walks as
// many trees as a served row does, so throughput and per-row overhead
// against it are the served ones.
func benchPredictor(b *testing.B) *core.Predictor {
	b.Helper()
	benchPredOnce.Do(func() {
		benchPred, benchPredErr = core.LoadPredictorFile(keptModel)
	})
	if benchPredErr != nil {
		b.Fatalf("loading bench predictor: %v", benchPredErr)
	}
	return benchPred
}

func benchServer(b *testing.B, opts Options) *Server {
	b.Helper()
	s := New(opts)
	s.models.Publish(benchPredictor(b), "bench")
	b.Cleanup(func() { s.Stop(context.Background()) })
	return s
}

func benchServeBytes(b *testing.B, rows int, binary bool) {
	s := benchServer(b, Options{})
	var req []byte
	if binary {
		req = binaryRequest(randRows(rows, int64(rows)))
	} else {
		req = jsonRequest(b, randRows(rows, int64(rows)))
	}
	var dst []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(req)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.ServeBytes(req, binary, dst[:0])
		if err != nil {
			b.Fatalf("ServeBytes: %v", err)
		}
		dst = out
	}
	b.StopTimer()
	preds := float64(rows) * float64(b.N)
	b.ReportMetric(preds/b.Elapsed().Seconds(), "preds/s")
}

func BenchmarkServePredictBinary1(b *testing.B)   { benchServeBytes(b, 1, true) }
func BenchmarkServePredictBinary64(b *testing.B)  { benchServeBytes(b, 64, true) }
func BenchmarkServePredictBinary256(b *testing.B) { benchServeBytes(b, 256, true) }
func BenchmarkServePredictJSON64(b *testing.B)    { benchServeBytes(b, 64, false) }

// BenchmarkServeCoalesced measures the full concurrent pipeline: many
// closed-loop clients, a real coalescing window, batches formed across
// requests. RunParallel spreads clients over GOMAXPROCS; with
// GOMAXPROCS=1 this is the single-core serving figure.
func BenchmarkServeCoalesced(b *testing.B) {
	s := benchServer(b, Options{Window: 50 * time.Microsecond, shards: 1})
	const rows = 32
	req := binaryRequest(randRows(rows, 3))
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst []byte
		for pb.Next() {
			out, err := s.ServeBytes(req, true, dst[:0])
			if err != nil {
				b.Fatalf("ServeBytes: %v", err)
			}
			dst = out
		}
	})
	b.StopTimer()
	preds := float64(rows) * float64(b.N)
	b.ReportMetric(preds/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkServeCoalescedSharded is the multi-core pipeline: one batcher
// lane per GOMAXPROCS, requests routed by affinity hint. Compare with
// BenchmarkServeCoalesced at the same GOMAXPROCS for the scale-out gain;
// the end-to-end serving figures come from `bash perfbench/run.sh`
// (workload serve-http).
func BenchmarkServeCoalescedSharded(b *testing.B) {
	s := benchServer(b, Options{Window: 50 * time.Microsecond, shards: 0}) // 0 → GOMAXPROCS lanes
	const rows = 32
	req := binaryRequest(randRows(rows, 3))
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst []byte
		for pb.Next() {
			out, err := s.ServeBytes(req, true, dst[:0])
			if err != nil {
				b.Fatalf("ServeBytes: %v", err)
			}
			dst = out
		}
	})
	b.StopTimer()
	preds := float64(rows) * float64(b.N)
	b.ReportMetric(preds/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkDecodeF64 isolates the binary codec.
func BenchmarkDecodeF64(b *testing.B) {
	req := binaryRequest(randRows(64, 5))
	var m ml.Matrix
	b.ReportAllocs()
	b.SetBytes(int64(len(req)))
	for i := 0; i < b.N; i++ {
		if err := decodeF64(req, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeJSONRows isolates the hand-rolled JSON parser; compare
// with BenchmarkDecodeF64 for the float-parsing cost the binary format
// exists to avoid.
func BenchmarkDecodeJSONRows(b *testing.B) {
	req := jsonRequest(b, randRows(64, 5))
	var m ml.Matrix
	b.ReportAllocs()
	b.SetBytes(int64(len(req)))
	for i := 0; i < b.N; i++ {
		if err := decodeJSONRows(req, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// catalogBody draws the feature rows of 64 ops of one catalog design, as
// perfbench's serve-http workload draws the first of its bodies for seed:
// the design by rng.Intn over the sorted names, the ops by rng.Perm. Real
// designs repeat their ops, so about half the rows repeat another.
func catalogBody(b *testing.B, seed int64) [][]float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := bench.Catalog()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	m := cat[names[rng.Intn(len(names))]](bench.WithDirectives())
	cfg := flow.DefaultConfig()
	sched, err := hls.ScheduleModule(m, cfg.Clock)
	if err != nil {
		b.Fatal(err)
	}
	bind := hls.BindModule(sched)
	ex := features.NewExtractor(m, sched, bind, graph.Build(m, bind), cfg.Dev)
	ops := m.AllOps()
	rows := make([][]float64, 64)
	for r, k := range rng.Perm(len(ops))[:len(rows)] {
		rows[r] = ex.Vector(ops[k])
	}
	return rows
}

// BenchmarkPredictBatchDirect is the floor: PredictBatchInto with no
// serving layer at all. The gap between this and ServeBytes is the total
// overhead of admission + decode + coalesce + encode. distinct is 64
// random rows, so it prices the repeated-row lookup on traffic it cannot
// help; repeats is 64 real ops of one design, whose repeats it saves.
func BenchmarkPredictBatchDirect(b *testing.B) {
	for _, bc := range []struct {
		name string
		rows func() [][]float64
	}{
		{"distinct", func() [][]float64 { return randRows(64, 9) }},
		{"repeats", func() [][]float64 { return catalogBody(b, 201) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := benchPredictor(b)
			rows := bc.rows()
			vert := make([]float64, len(rows))
			horiz := make([]float64, len(rows))
			avg := make([]float64, len(rows))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.PredictBatchInto(vert, horiz, avg, rows); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			preds := float64(len(rows)) * float64(b.N)
			b.ReportMetric(preds/b.Elapsed().Seconds(), "preds/s")
		})
	}
}
