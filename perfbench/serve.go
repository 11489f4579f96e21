package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serve-http: independent clients send /predict requests on a schedule,
// whether or not earlier ones have been answered — an open loop. The server
// is an in-process serve.Server behind net/http on loopback; the client is
// the same process, with as many connections as the reference host has
// CPUs (2). A run holds the nominal rate for half its time (p50_ms and
// tail_ms), measures the closed-loop capacity, then searches a ladder of
// rates down from that capacity for the highest one that meets the latency
// limit without a backlog (ops_per_s, in feature rows per second).
//
// Latency runs from each request's scheduled send, so a stall in the
// server or the generator delays every request scheduled behind it.

const (
	bodyRows   = 64 // feature rows per request body
	bodies     = 64 // distinct bodies, sent in seeded order
	clientConn = 2  // client connections (and sender goroutines)

	// One body in jsonEvery is JSON, the rest binary. The share is an
	// unverified assumption, not a measured traffic mix: nothing in the
	// repository records one, and congload sends binary by default. Do
	// not tune serving against it as if it were real traffic.
	jsonEvery = 4

	// nominalRPS is the steady rate latency is reported at, about a
	// quarter of what the reference host sustains.
	nominalRPS = 200.0
	// The ladder's rung k offers nominalRPS * ladderStep^k requests per
	// second, for k up to ladderRungs.
	ladderStep  = 1.06
	ladderRungs = 48
	// ladderTries is the most rungs one search tries, two probes each.
	// Searches on the reference host settled within five.
	ladderTries = 12
	// limitMs is the windowed tail (tailQuantile) latency a rung must
	// meet. A limit on the p99 of a whole probe failed rungs far below
	// capacity in about one run in ten, when host stalls hit consecutive
	// probes.
	limitMs = 50.0
	// saturateWindows is how many windows the capacity measurement is
	// split into; it reports their median rate.
	saturateWindows = 8
	// tailWindow is the window a phase's tail latency is taken over: the
	// phase's tail is the median of its windows' tails. At the nominal rate
	// a window holds 100 requests, 10 of them beyond the p90.
	tailWindow = 500 * time.Millisecond
	// drainGrace bounds how long a phase may keep sending after its last
	// scheduled tick; ticks still unsent then count as failed.
	drainGrace = 30 * time.Second
)

// body is one request payload with the answer it must get.
type body struct {
	rows             [][]float64
	payload          []byte
	binary           bool
	vert, horiz, avg []float64
}

// serveState is one set-up: the server, its listener and the client.
type serveState struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	client  *http.Client
	reg     *obs.Registry
	bodies  []body
	pred    *core.Predictor
	handler *timedHandler
	done    chan struct{}
}

func runServe(o options) (*outcome, error) {
	pn, err := loadPins(o.dir)
	if err != nil {
		return nil, err
	}
	st, setupS, err := timeSetup(5, func() (*serveState, error) { return setupServe(o, pn) }, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := &outcome{correct: true, values: map[string]float64{"setup_s": setupS}}
	rng := rand.New(rand.NewSource(o.seed + 1))
	total := time.Duration(o.seconds * float64(time.Second))

	if o.trace {
		// Half the ticks go through the timed handler wrapper, interleaved
		// with plain ones, so the two halves see the same conditions.
		before := st.reg.Snapshot()
		ph := st.phase(out, rng, nominalRPS, total*2/3, true)
		after := st.reg.Snapshot()
		var traced, untraced, handler []float64
		for _, s := range ph.samples {
			if s.traced {
				traced = append(traced, s.rttMs)
				handler = append(handler, s.handlerMs)
			} else {
				untraced = append(untraced, s.rttMs)
			}
		}
		p50 := median(traced)
		share := ratio(sum(handler), sum(traced))
		out.values["serve.handler_ms"] = share * p50
		out.values["serve.net_ms"] = (1 - share) * p50
		out.values["predict.batch_ms"] = st.predictMs()
		batches := counterDelta(before, after, obs.MetricServeBatches)
		out.values["serve.batches"] = batches
		if batches > 0 {
			out.values["serve.rows_per_batch"] = counterDelta(before, after, obs.MetricServePredictions) / batches
		}
		out.values["serve.gen_late_ms"] = percentile(ph.genLateMs, 0.99)
		setOverhead(out.values, p50, median(untraced))
		return out, nil
	}

	nom := st.phase(out, rng, nominalRPS, total/2, false)
	out.values["p50_ms"] = median(nom.latencies())
	out.values["tail_ms"] = nom.windowedTail()
	capacity := st.saturate(out, rng, total/8)
	best := st.searchLadder(out, rng, nom, capacity, total/8)
	out.values["ops_per_s"] = best.throughput() * bodyRows
	return out, nil
}

// searchLadder finds the ladder's highest rung that meets the limit (see
// phaseResult.meets) at or below the closed-loop capacity: it starts at
// the highest such rung and steps down until a rung passes. Near capacity
// the server passes or misses a rung by chance, so a search that also
// climbed past the capacity rung settled up to 25% higher in some runs and
// not in others. Each rung is tried twice before it counts as failed, so
// one burst of host noise does not decide it, and at most ladderTries
// rungs are tried, which bounds the run's length. Rung 0 is the nominal
// phase already run; the search returns the phase of the rung it settles
// on.
func (st *serveState) searchLadder(out *outcome, rng *rand.Rand, nom *phaseResult, capacity float64, probe time.Duration) *phaseResult {
	if !nom.meets() {
		return nom
	}
	top := min(rungAtOrBelow(capacity), ladderRungs)
	for k := top; k > 0 && k > top-ladderTries; k-- {
		rate := nominalRPS * math.Pow(ladderStep, float64(k))
		for attempt := 0; attempt < 2; attempt++ {
			ph := st.phase(out, rng, rate, probe, false)
			fmt.Fprintf(os.Stderr, "perfbench: serve-http capacity %.0f req/s, rung %d (%.0f req/s): %.0f req/s answered, p90 %.1f ms\n",
				capacity, k, rate, ph.throughput(), ph.windowedTail())
			if ph.meets() {
				return ph
			}
		}
	}
	return nom
}

// rungAtOrBelow is the highest ladder rung whose rate is at most rate; it
// is negative when rate is below the nominal rate.
func rungAtOrBelow(rate float64) int {
	if rate < nominalRPS {
		return -1
	}
	return int(math.Floor(math.Log(rate/nominalRPS) / math.Log(ladderStep)))
}

// saturate measures the closed-loop capacity in requests per second: every
// client connection sends its next request as soon as the previous one is
// answered, for dur. It returns the median rate over saturateWindows equal
// windows, so a stall in one window does not move it.
func (st *serveState) saturate(out *outcome, rng *rand.Rand, dur time.Duration) float64 {
	order := make([]int, 1<<16)
	for i := range order {
		order[i] = rng.Intn(len(st.bodies))
	}
	start := time.Now()
	window := dur / saturateWindows
	counts := make([]int, saturateWindows)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next int
	for c := 0; c < clientConn; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				_, err := st.send(order[i%len(order)], -1)
				w := int(time.Since(start) / window)
				mu.Lock()
				out.attempted++
				if err != nil {
					out.failed++
					out.correct = checkf("saturation request %d: %v", i, err)
				} else if w < saturateWindows {
					counts[w]++
				}
				mu.Unlock()
				if w >= saturateWindows {
					return
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, saturateWindows)
	for w, n := range counts {
		rates[w] = float64(n) / window.Seconds()
	}
	return median(rates)
}

func counterDelta(before, after obs.Snapshot, name string) float64 {
	a, _ := after.Counter(name)
	b, _ := before.Counter(name)
	return float64(a - b)
}

// setupServe loads the kept artifact, draws the request bodies from the
// catalog designs, computes their expected answers, and starts the server
// and client.
func setupServe(o options, pn *pins) (*serveState, error) {
	pred, err := loadArtifact(o.dir, pn)
	if err != nil {
		return nil, err
	}
	st := &serveState{reg: obs.NewRegistry(), done: make(chan struct{})}
	st.pred = pred
	if st.bodies, err = makeBodies(pred, o.seed); err != nil {
		return nil, err
	}
	st.srv = serve.New(serve.Options{Obs: &obs.Observer{Reg: st.reg}})
	if _, err := st.srv.LoadModel(modelPath(o.dir, "predictor.json")); err != nil {
		st.srv.Stop(context.Background())
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Stop(context.Background())
		return nil, err
	}
	var h http.Handler = st.srv.Handler()
	if o.trace {
		st.handler = &timedHandler{h: h, took: map[int]time.Duration{}}
		h = st.handler
	}
	st.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(st.done)
		st.hs.Serve(ln)
	}()
	st.url = "http://" + ln.Addr().String() + "/predict"
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clientConn,
		MaxIdleConnsPerHost: clientConn,
		DisableCompression:  true,
	}}
	// Warm the connections and the server's pools.
	for i := 0; i < 2*bodies; i++ {
		if _, err := st.send(i%bodies, -1); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return st, nil
}

// close stops the server and waits for its goroutines.
func (st *serveState) close() {
	st.client.CloseIdleConnections()
	st.hs.Close()
	<-st.done
	st.srv.Stop(context.Background())
}

// makeBodies draws each body's rows from one catalog design, chosen by the
// seed, extracting the real feature vectors of 64 of its ops, and scores
// each body directly with PredictBatchInto for the expected answer.
func makeBodies(pred *core.Predictor, seed int64) ([]body, error) {
	rng := rand.New(rand.NewSource(seed))
	cat := bench.Catalog()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	cfg := flow.DefaultConfig()
	extractors := map[string]*features.Extractor{}
	out := make([]body, bodies)
	for i := range out {
		name := names[rng.Intn(len(names))]
		ex := extractors[name]
		if ex == nil {
			m := cat[name](bench.WithDirectives())
			sched, err := hls.ScheduleModule(m, cfg.Clock)
			if err != nil {
				return nil, fmt.Errorf("scheduling %s: %w", name, err)
			}
			bind := hls.BindModule(sched)
			ex = features.NewExtractor(m, sched, bind, graph.Build(m, bind), cfg.Dev)
			extractors[name] = ex
		}
		ops := ex.Mod.AllOps()
		rows := make([][]float64, bodyRows)
		for r, k := range rng.Perm(len(ops))[:bodyRows] {
			rows[r] = ex.Vector(ops[k])
		}
		b := body{rows: rows, binary: i%jsonEvery != 0}
		b.vert, b.horiz, b.avg = make([]float64, bodyRows), make([]float64, bodyRows), make([]float64, bodyRows)
		if err := pred.PredictBatchInto(b.vert, b.horiz, b.avg, rows); err != nil {
			return nil, err
		}
		b.payload = encodeBody(rows, b.binary)
		out[i] = b
	}
	return out, nil
}

// predictMs is the median time of a direct PredictBatchInto on one body,
// each body scored three times on warm buffers.
func (st *serveState) predictMs() float64 {
	v, h, a := make([]float64, bodyRows), make([]float64, bodyRows), make([]float64, bodyRows)
	var times []float64
	for rep := 0; rep < 3; rep++ {
		for _, b := range st.bodies {
			t0 := time.Now()
			// The rows were scored without error when the body was made.
			_ = st.pred.PredictBatchInto(v, h, a, b.rows)
			times = append(times, ms(time.Since(t0)))
		}
	}
	return median(times)
}

// encodeBody writes rows in the serve wire formats: serve.ContentF64
// (uint32 rows, uint32 cols, little-endian float64s) or JSON.
func encodeBody(rows [][]float64, bin bool) []byte {
	if bin {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(rows)))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rows[0])))
		for _, r := range rows {
			for _, v := range r {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
		return b
	}
	b := []byte(`{"rows":[`)
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range r {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// timedHandler times Handler().ServeHTTP for requests carrying a tick ID.
type timedHandler struct {
	h    http.Handler
	mu   sync.Mutex
	took map[int]time.Duration
}

const tickHeader = "X-Perfbench-Tick"

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(tickHeader)
	if id == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(t0)
	if n, err := strconv.Atoi(id); err == nil {
		t.mu.Lock()
		t.took[n] = d
		t.mu.Unlock()
	}
}

// send posts body i and checks the answer. tick >= 0 asks the timed
// handler to record the handler time under that ID.
func (st *serveState) send(i, tick int) (time.Duration, error) {
	b := st.bodies[i]
	req, err := http.NewRequest(http.MethodPost, st.url, bytes.NewReader(b.payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", serve.ContentJSON)
	if b.binary {
		req.Header.Set("Content-Type", serve.ContentF64)
	}
	if tick >= 0 {
		req.Header.Set(tickHeader, strconv.Itoa(tick))
	}
	t0 := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return rtt, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(got))
	}
	return rtt, b.check(got)
}

var errWrongAnswer = errors.New("answer differs from a direct PredictBatchInto")

// check compares a response with the body's direct predictions, bit for
// bit.
func (b body) check(resp []byte) error {
	var v, h, a []float64
	if b.binary {
		if len(resp) != 4+3*8*bodyRows || binary.LittleEndian.Uint32(resp) != bodyRows {
			return fmt.Errorf("%w: binary response of %d bytes", errWrongAnswer, len(resp))
		}
		col := func(k int) []float64 {
			out := make([]float64, bodyRows)
			for i := range out {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(resp[4+8*(k*bodyRows+i):]))
			}
			return out
		}
		v, h, a = col(0), col(1), col(2)
	} else {
		var doc struct {
			Vert, Horiz, Avg []float64
		}
		if err := json.Unmarshal(resp, &doc); err != nil {
			return fmt.Errorf("%w: %v", errWrongAnswer, err)
		}
		v, h, a = doc.Vert, doc.Horiz, doc.Avg
	}
	if !sameBits(v, b.vert) || !sameBits(h, b.horiz) || !sameBits(a, b.avg) {
		return errWrongAnswer
	}
	return nil
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// sample is one answered tick.
type sample struct {
	latencyMs float64 // scheduled send to answer
	rttMs     float64 // actual send to answer
	handlerMs float64 // Handler().ServeHTTP, traced ticks only
	traced    bool
	tick      int
	due       time.Time
	doneAt    time.Time
}

// phaseResult is one open-loop phase at a fixed offered rate.
type phaseResult struct {
	rate      float64
	start     time.Time
	samples   []sample
	genLateMs []float64
	failed    int
}

func (p *phaseResult) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.latencyMs
	}
	return out
}

// windowedTail is the median over tailWindow-long windows of the tail
// latency of the requests due in each window. A host stall lifts the tail
// of one or two windows; the median of all of them does not move with it.
func (p *phaseResult) windowedTail() float64 {
	byWindow := map[int][]float64{}
	for _, s := range p.samples {
		w := int(s.due.Sub(p.start) / tailWindow)
		byWindow[w] = append(byWindow[w], s.latencyMs)
	}
	var tails []float64
	for _, lat := range byWindow {
		tails = append(tails, percentile(lat, tailQuantile))
	}
	return median(tails)
}

// meets reports whether the phase kept up with its offered rate: every
// tick answered, the answers at no less than 95% of the offered rate (so no
// backlog grew), and the windowed tail latency within the limit.
func (p *phaseResult) meets() bool {
	return p.failed == 0 && p.throughput() >= 0.95*p.rate && p.windowedTail() <= limitMs
}

// throughput is answered requests per second, from the phase start to the
// last answer.
func (p *phaseResult) throughput() float64 {
	last := p.start
	for _, s := range p.samples {
		if s.doneAt.After(last) {
			last = s.doneAt
		}
	}
	return ratio(float64(len(p.samples)), last.Sub(p.start).Seconds())
}

// phase offers rate requests per second for dur. Tick i is due at
// start + (i+u)/rate with a seeded offset u in [0,1); a generator goroutine
// releases each tick when due, and clientConn senders take released ticks
// in order. With traced set, every other tick asks for handler timing.
func (st *serveState) phase(out *outcome, rng *rand.Rand, rate float64, dur time.Duration, traced bool) *phaseResult {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	due := make([]time.Time, n)
	order := make([]int, n)
	start := time.Now().Add(5 * time.Millisecond)
	for i := range due {
		due[i] = start.Add(time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second)))
		order[i] = rng.Intn(len(st.bodies))
	}
	p := &phaseResult{rate: rate, start: start, samples: make([]sample, 0, n), genLateMs: make([]float64, n)}
	released := make(chan int, n) // holds every tick, so the generator never blocks
	go func() {
		defer close(released)
		for i, t := range due {
			if d := time.Until(t); d > 0 {
				time.Sleep(d)
			}
			p.genLateMs[i] = ms(time.Since(t))
			released <- i
		}
	}()
	var mu sync.Mutex
	var wg sync.WaitGroup
	cutoff := due[n-1].Add(drainGrace)
	for c := 0; c < clientConn; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range released {
				if time.Now().After(cutoff) {
					mu.Lock()
					p.failed++
					mu.Unlock()
					continue
				}
				tick := -1
				if traced && i%2 == 0 {
					tick = i
				}
				rtt, err := st.send(order[i], tick)
				now := time.Now()
				mu.Lock()
				if err != nil {
					p.failed++
					out.correct = checkf("request %d: %v", i, err)
				} else {
					p.samples = append(p.samples, sample{latencyMs: ms(now.Sub(due[i])), rttMs: ms(rtt), traced: tick >= 0, tick: i, due: due[i], doneAt: now})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if st.handler != nil {
		st.handler.mu.Lock()
		for k := range p.samples {
			if s := &p.samples[k]; s.traced {
				s.handlerMs = ms(st.handler.took[s.tick])
			}
		}
		st.handler.took = map[int]time.Duration{}
		st.handler.mu.Unlock()
	}
	out.attempted += int64(n)
	out.failed += int64(p.failed)
	return p
}
