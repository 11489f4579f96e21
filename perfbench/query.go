package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
)

// design-query: one designer (or design-space script) hands over a design
// and waits for the answer before sending the next — a closed loop with
// one client. The client walks seeded rounds; each round asks every design
// once in a shuffled order, and a run measures whole rounds only, so every
// seed measures the same mix of design sizes. Nothing collects the heap
// between queries: a query pays for the garbage collection its allocation
// causes, as it would in a designer's tool.

type queryState struct {
	pred    *core.Predictor
	designs []design
}

func runQuery(o options) (*outcome, error) {
	pn, err := loadPins(o.dir)
	if err != nil {
		return nil, err
	}
	st, setupS, err := timeSetup(15, func() (queryState, error) {
		pred, err := loadArtifact(o.dir, pn)
		if err != nil {
			return queryState{}, err
		}
		designs, err := queryDesigns()
		return queryState{pred: pred, designs: designs}, err
	}, func(queryState) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true, values: map[string]float64{"setup_s": setupS}}
	for _, d := range st.designs {
		if pn.Designs[d.name] == "" {
			return nil, fmt.Errorf("pins have no digest for design %s; %s", d.name, repinHint)
		}
	}
	cfg := flow.DefaultConfig()
	rng := rand.New(rand.NewSource(o.seed))
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if o.trace {
		traceQueries(out, st, pn, cfg, rng, deadline)
		return out, nil
	}

	var lat []float64
	var busy time.Duration
	ops := 0
	for time.Now().Before(deadline) {
		for _, i := range rng.Perm(len(st.designs)) {
			d := st.designs[i]
			out.attempted++
			t0 := time.Now()
			preds, hs, err := query(st.pred, cfg, d.text)
			dt := time.Since(t0)
			if err != nil {
				out.failed++
				out.correct = checkf("query %s: %v", d.name, err)
				continue
			}
			lat = append(lat, ms(dt))
			busy += dt
			ops += len(preds)
			if got := answerDigest(preds, hs); got != pn.Designs[d.name] {
				out.correct = checkf("design %s answered with digest %s, pinned %s; %s", d.name, got, pn.Designs[d.name], repinHint)
			}
		}
	}
	out.values["p50_ms"] = median(lat)
	out.values["tail_ms"] = percentile(lat, tailQuantile)
	out.values["ops_per_s"] = ratio(float64(ops), busy.Seconds())
	return out, nil
}

// traceQueries is the traced design-query run. Every query runs twice, in
// alternating order: once through the real PredictModule path (untraced)
// and once as a stage-by-stage replay with a span per layer. The replay's
// answer must equal the real one byte for byte, and both the pin.
//
// Layer times are reported for the median query: each layer's share of all
// traced query time, times the median traced query time, so the layers add
// up to trace.traced_ms. trace.untraced_ms is the median real query.
func traceQueries(out *outcome, st queryState, pn *pins, cfg flow.Config, rng *rand.Rand, deadline time.Time) {
	layers := map[string]float64{}
	var traced, untraced, untracedCPU []float64
	ops := 0
	for time.Now().Before(deadline) {
		for k, i := range rng.Perm(len(st.designs)) {
			d := st.designs[i]
			out.attempted += 2
			var refDigest, replayDigest string
			var refErr, replayErr error
			direct := func() {
				t0, c0 := time.Now(), cpuTime()
				preds, hs, err := query(st.pred, cfg, d.text)
				untracedCPU = append(untracedCPU, ms(cpuTime()-c0))
				untraced = append(untraced, ms(time.Since(t0)))
				if refErr = err; err == nil {
					refDigest = answerDigest(preds, hs)
					ops += len(preds)
				}
			}
			replay := func() {
				rec := newRecorder()
				preds, hs, err := replayQuery(rec, st.pred, cfg, d.text)
				traced = append(traced, ms(rec.finish()))
				rec.attribute(layers)
				if replayErr = err; err == nil {
					replayDigest = answerDigest(preds, hs)
				}
			}
			// Alternate the order so neither side always runs on caches
			// the other just warmed.
			if k%2 == 0 {
				direct()
				replay()
			} else {
				replay()
				direct()
			}
			switch {
			case refErr != nil || replayErr != nil:
				out.failed += 2
				out.correct = checkf("query %s: real: %v, replay: %v", d.name, refErr, replayErr)
			case replayDigest != refDigest:
				out.correct = checkf("replay of design %s answered %s, PredictModule answered %s", d.name, replayDigest, refDigest)
			case refDigest != pn.Designs[d.name]:
				out.correct = checkf("design %s answered with digest %s, pinned %s; %s", d.name, refDigest, pn.Designs[d.name], repinHint)
			}
		}
	}
	p50 := median(traced)
	scale := ratio(p50, sum(traced))
	for name, v := range layers {
		out.values[name] = v * scale
	}
	out.values["query.ops"] = ratio(float64(ops), float64(len(untraced)))
	out.values["trace.untraced_cpu_ms"] = median(untracedCPU)
	setOverhead(out.values, p50, median(untraced))
}

// setOverhead records the traced and untraced wall times of one operation
// and the tracing overhead between them.
func setOverhead(values map[string]float64, traced, untraced float64) {
	values["trace.traced_ms"] = traced
	values["trace.untraced_ms"] = untraced
	values["trace.overhead_pct"] = ratio(traced-untraced, untraced) * 100
}

// replayQuery is core.Predictor.PredictModule after ir.ParseText, followed
// by core.Hotspots, with each layer call in its own span, in the order
// PredictModule makes them.
func replayQuery(rec *recorder, pred *core.Predictor, cfg flow.Config, text string) ([]core.OpPrediction, []core.Hotspot, error) {
	var m *ir.Module
	var err error
	rec.do("ir.parse_ms", func() { m, err = ir.ParseText(strings.NewReader(text)) })
	if err != nil {
		return nil, nil, err
	}
	var sched *hls.Schedule
	rec.do("hls.schedule_ms", func() { sched, err = hls.ScheduleModule(m, cfg.Clock) })
	if err != nil {
		return nil, nil, err
	}
	var bind *hls.Binding
	rec.do("hls.bind_ms", func() { bind = hls.BindModule(sched) })
	var g *graph.Graph
	rec.do("graph.build_ms", func() { g = graph.Build(m, bind) })
	var ops []*ir.Op
	var feats [][]float64
	rec.do("features.extract_ms", func() {
		ex := features.NewExtractor(m, sched, bind, g, cfg.Dev)
		ops = m.AllOps()
		feats = make([][]float64, len(ops))
		for i, o := range ops {
			feats[i] = ex.Vector(o)
		}
	})
	if len(ops) == 0 {
		return nil, core.Hotspots(nil), nil
	}
	vert := make([]float64, len(ops))
	horiz := make([]float64, len(ops))
	avg := make([]float64, len(ops))
	rec.do("predict.batch_ms", func() { err = pred.PredictBatchInto(vert, horiz, avg, feats) })
	if err != nil {
		return nil, nil, err
	}
	preds := make([]core.OpPrediction, len(ops))
	for i, o := range ops {
		preds[i] = core.OpPrediction{Op: o, VertPct: vert[i], HorizPct: horiz[i], AvgPct: avg[i]}
	}
	var hs []core.Hotspot
	rec.do("hotspots.ms", func() { hs = core.Hotspots(preds) })
	return preds, hs, nil
}
