// congload is congserve's load generator, with two firing disciplines:
//
//   - Closed-loop (default): N workers each keep exactly one /predict
//     request in flight. Throughput is what the server sustains; latency
//     hides queueing because a slow server slows the arrival rate too
//     (coordinated omission).
//   - Open-loop (-rate R): requests fire on a fixed schedule of R per
//     second regardless of how the server is doing, serviced by -conns
//     workers. Latency is measured from each request's *scheduled* fire
//     time, so server stalls show up as tail latency instead of vanishing
//     into a slower offered rate. When every worker is busy, ticks queue
//     in a bounded buffer; overflow is counted (dropped_ticks) rather
//     than silently stretching the schedule.
//
// Both report throughput percentiles as a parseable JSON document — the
// numbers behind BENCH_PR9.json (and PR7's before it).
//
// Usage:
//
//	congload -addr HOST:PORT [flags]
//	congload -addr HOST:PORT -probe FILE    one deterministic request;
//	                                        raw response body → FILE
//
// Flags:
//
//	-addr HOST:PORT   server address (required; scheme-less)
//	-duration DUR     run length (default 3s; ignored when -n > 0)
//	-n N              stop after N total requests instead of a duration
//	-concurrency C    closed-loop workers (default 4)
//	-rate R           open-loop offered load in req/s (0 = closed-loop)
//	-conns C          open-loop service workers (0 = -concurrency)
//	-rows R           feature rows per request (default 64)
//	-format F         binary (ContentF64) or json (default binary)
//	-warmup DUR       untimed warmup before measuring (default 200ms)
//	-out FILE         write the JSON report to FILE too ("" = stdout only)
//	-probe FILE       send one request built from the fixed seed, write
//	                  the raw response bytes to FILE and exit — lets
//	                  scripts diff responses across server configurations
//	                  (byte-identity across lane counts: a congserve under
//	                  GOMAXPROCS=1 runs one lane)
//
// The report: {"mode", "requests", "errors", "shed", "preds",
// "duration_sec", "preds_per_sec", "requests_per_sec", "p50_us",
// "p90_us", "p99_us", "max_us", "rows", "concurrency", "format",
// "offered_rate", "conns", "dropped_ticks", "server_p99_us_bound",
// "server_shed", "server_reloads", "server_reload_errors", "server"} —
// the server_* fields mirror the server's own /debug/metrics counters
// (lifetime totals) so overload and reload behaviour is diagnosable from
// the report alone, and the "server" object is the *delta* of those
// metrics across the measured window (a /debug/metrics snapshot taken
// right before and right after): what the server itself saw THIS run —
// requests, predictions, sheds, errors, batches, and the latency window's
// count/p50/p99 interpolated from its histogram bucket deltas.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	os.Exit(realMain())
}

type report struct {
	// Mode is "closed" or "open" (see the package comment for the
	// difference in what the latency percentiles mean).
	Mode        string  `json:"mode"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Shed        int64   `json:"shed"`
	Preds       int64   `json:"preds"`
	DurationSec float64 `json:"duration_sec"`
	PredsPerSec float64 `json:"preds_per_sec"`
	ReqsPerSec  float64 `json:"requests_per_sec"`
	P50Us       float64 `json:"p50_us"`
	P90Us       float64 `json:"p90_us"`
	P99Us       float64 `json:"p99_us"`
	MaxUs       float64 `json:"max_us"`
	Rows        int     `json:"rows"`
	Concurrency int     `json:"concurrency"`
	Format      string  `json:"format"`
	// OfferedRate / Conns / DroppedTicks describe the open-loop schedule
	// (zero in closed-loop mode): the configured req/s, the worker pool
	// servicing the schedule, and the ticks dropped because the bounded
	// tick queue was full — nonzero dropped_ticks means the measured rate
	// undershot the offered rate and the percentiles describe a saturated
	// server.
	OfferedRate  float64 `json:"offered_rate"`
	Conns        int     `json:"conns"`
	DroppedTicks int64   `json:"dropped_ticks"`
	// ServerP99UsBound is the tightest serve.latency_us histogram bucket
	// bound covering ≥99% of the server's own ServeBytes observations —
	// the serving-layer p99 with the HTTP and network cost stripped away
	// (0 when /debug/metrics was unavailable).
	ServerP99UsBound float64 `json:"server_p99_us_bound"`
	// ServerShed/ServerReloads/ServerReloadErrors mirror the server's own
	// serve.shed / serve.reloads / serve.reload_errors counters from the
	// same /debug/metrics snapshot, so an overload or mid-run reload is
	// diagnosable from this report alone. They are lifetime totals, not
	// this run's delta, and 0 when the endpoint was unavailable.
	ServerShed         int64 `json:"server_shed"`
	ServerReloads      int64 `json:"server_reloads"`
	ServerReloadErrors int64 `json:"server_reload_errors"`
	// Server is the delta of the server's own metrics across the measured
	// window (nil when /debug/metrics was unavailable at either end) — the
	// server-side account of this run, with queueing and network stripped
	// to what ServeBytes itself observed.
	Server *serverDelta `json:"server,omitempty"`
}

// serverDelta is the change in the server's /debug/metrics between a
// snapshot taken just before the measured window and one just after.
// Counter deltas follow the Prometheus reset rule (a shrunk total — the
// server restarted mid-run — re-bases on the current value); the latency
// fields are the serve.latency_us histogram's window activity with p50/p99
// interpolated from its bucket deltas.
type serverDelta struct {
	Requests     int64   `json:"requests"`
	Predictions  int64   `json:"predictions"`
	Shed         int64   `json:"shed"`
	Errors       int64   `json:"errors"`
	Batches      int64   `json:"batches"`
	LatencyCount int64   `json:"latency_count"`
	LatencyP50Us float64 `json:"latency_p50_us"`
	LatencyP99Us float64 `json:"latency_p99_us"`
}

// deltaReport derives the measured-window server delta from two snapshots.
func deltaReport(before, after *obs.Snapshot) *serverDelta {
	if before == nil || after == nil {
		return nil
	}
	cd := func(name string) int64 {
		prev, _ := before.Counter(name)
		cur, _ := after.Counter(name)
		if cur < prev { // reset: the server restarted behind the endpoint
			return cur
		}
		return cur - prev
	}
	d := &serverDelta{
		Requests:    cd(obs.MetricServeRequests),
		Predictions: cd(obs.MetricServePredictions),
		Shed:        cd(obs.MetricServeShed),
		Errors:      cd(obs.MetricServeErrors),
		Batches:     cd(obs.MetricServeBatches),
	}
	if cur := after.Histogram(obs.MetricServeLatencyUs); cur != nil {
		hw := obs.HistogramWindow(before.Histogram(obs.MetricServeLatencyUs), cur)
		d.LatencyCount = hw.Count
		d.LatencyP50Us = hw.P50
		d.LatencyP99Us = hw.P99
	}
	return d
}

func realMain() int {
	addr := flag.String("addr", "", "server address HOST:PORT (required)")
	duration := flag.Duration("duration", 3*time.Second, "run length (ignored when -n > 0)")
	totalN := flag.Int64("n", 0, "stop after N requests instead of a duration")
	concurrency := flag.Int("concurrency", 4, "closed-loop workers")
	rate := flag.Float64("rate", 0, "open-loop offered load in req/s (0 = closed-loop)")
	conns := flag.Int("conns", 0, "open-loop service workers (0 = -concurrency)")
	rows := flag.Int("rows", 64, "feature rows per request")
	format := flag.String("format", "binary", "binary or json")
	warmup := flag.Duration("warmup", 200*time.Millisecond, "untimed warmup")
	out := flag.String("out", "", "also write the JSON report to FILE")
	probe := flag.String("probe", "", "send one deterministic request, write the raw response body to FILE, exit")
	flag.Parse()
	if *addr == "" || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	isBinary := *format == "binary"
	if !isBinary && *format != "json" {
		fmt.Fprintln(os.Stderr, "congload: -format must be binary or json")
		return 2
	}

	payload := buildPayload(*rows, isBinary)
	url := "http://" + *addr + "/predict"
	contentType := serve.ContentJSON
	if isBinary {
		contentType = serve.ContentF64
	}

	// One transport with enough idle conns that each closed-loop worker
	// keeps its connection alive — measuring the server, not TCP setup.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *concurrency * 2,
		MaxIdleConnsPerHost: *concurrency * 2,
	}}

	if *probe != "" {
		// Probe mode: one request from the fixed payload seed, raw response
		// bytes to the file. Two servers are provably serving the same
		// predictions iff their probe files compare byte-equal.
		resp, err := client.Post(url, contentType, bytes.NewReader(payload))
		if err != nil {
			fmt.Fprintln(os.Stderr, "congload: probe:", err)
			return 1
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "congload: probe status %d: %s\n", resp.StatusCode, body)
			return 1
		}
		if err := os.WriteFile(*probe, body, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "congload:", err)
			return 1
		}
		return 0
	}

	shoot := func(buf *bytes.Reader) (int, error) {
		buf.Reset(payload)
		req, err := http.NewRequest(http.MethodPost, url, buf)
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// Warmup: fill pools, JIT the connection reuse, let the server's lazy
	// scratch grow — untimed.
	wbuf := bytes.NewReader(payload)
	wend := time.Now().Add(*warmup)
	for time.Now().Before(wend) {
		if _, err := shoot(wbuf); err != nil {
			fmt.Fprintln(os.Stderr, "congload: warmup:", err)
			return 1
		}
	}

	// Bracket the measured window with server snapshots: the delta between
	// them is what the server itself saw during this run, immune to earlier
	// runs, the warmup and other clients inflating the lifetime totals.
	before := fetchSnapshot(client, *addr)

	var (
		requests, errCount, shed, dropped atomic.Int64
		mu                                sync.Mutex
		latencies                         []float64 // µs, merged per worker at the end
	)
	record := func(local *[]float64, status int, err error, lat float64) {
		switch {
		case err != nil:
			errCount.Add(1)
		case status == http.StatusTooManyRequests:
			shed.Add(1)
		case status != http.StatusOK:
			errCount.Add(1)
		default:
			*local = append(*local, lat)
		}
	}
	mode := "closed"
	openWorkers := 0
	if *rate > 0 {
		mode = "open"
		openWorkers = *conns
		if openWorkers <= 0 {
			openWorkers = *concurrency
		}
	}
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	if mode == "open" {
		// Open loop: the scheduler emits ticks on an absolute timetable —
		// tick i fires at start + i/rate, immune to per-tick sleep drift —
		// and workers service the bounded queue, measuring latency from the
		// scheduled fire time so queueing delay counts against the server
		// instead of being coordinated away.
		interval := time.Duration(float64(time.Second) / *rate)
		ticks := make(chan time.Time, 4*openWorkers)
		go func() {
			defer close(ticks)
			for i := int64(0); ; i++ {
				if *totalN > 0 && i >= *totalN {
					return
				}
				sched := start.Add(time.Duration(i) * interval)
				if *totalN <= 0 && sched.After(deadline) {
					return
				}
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				select {
				case ticks <- sched:
				default:
					// Queue full: every worker is busy and the buffer has
					// absorbed what it can. Count the drop and hold the
					// schedule — never block, or this becomes a closed loop.
					dropped.Add(1)
				}
			}
		}()
		for w := 0; w < openWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := bytes.NewReader(payload)
				local := make([]float64, 0, 1<<16)
				for sched := range ticks {
					requests.Add(1)
					status, err := shoot(buf)
					record(&local, status, err, float64(time.Since(sched))/float64(time.Microsecond))
				}
				mu.Lock()
				latencies = append(latencies, local...)
				mu.Unlock()
			}()
		}
	} else {
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := bytes.NewReader(payload)
				local := make([]float64, 0, 1<<16)
				for {
					if *totalN > 0 {
						if requests.Add(1) > *totalN {
							break
						}
					} else {
						if time.Now().After(deadline) {
							break
						}
						requests.Add(1)
					}
					t0 := time.Now()
					status, err := shoot(buf)
					record(&local, status, err, float64(time.Since(t0))/float64(time.Microsecond))
				}
				mu.Lock()
				latencies = append(latencies, local...)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	n := requests.Load()
	if *totalN > 0 && n > *totalN {
		n = *totalN
	}
	ok := int64(len(latencies))
	r := report{
		Mode:         mode,
		Requests:     n,
		Errors:       errCount.Load(),
		Shed:         shed.Load(),
		Preds:        ok * int64(*rows),
		DurationSec:  elapsed,
		Rows:         *rows,
		Concurrency:  *concurrency,
		Format:       *format,
		OfferedRate:  *rate,
		Conns:        openWorkers,
		DroppedTicks: dropped.Load(),
	}
	if elapsed > 0 {
		r.PredsPerSec = float64(r.Preds) / elapsed
		r.ReqsPerSec = float64(ok) / elapsed
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		r.P50Us = quantile(latencies, 0.50)
		r.P90Us = quantile(latencies, 0.90)
		r.P99Us = quantile(latencies, 0.99)
		r.MaxUs = latencies[len(latencies)-1]
	}
	after := fetchSnapshot(client, *addr)
	r.ServerP99UsBound, r.ServerShed, r.ServerReloads, r.ServerReloadErrors =
		serverMetrics(after)
	r.Server = deltaReport(before, after)
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "congload:", err)
		return 1
	}
	doc = append(doc, '\n')
	os.Stdout.Write(doc)
	if *out != "" {
		if err := os.WriteFile(*out, doc, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "congload:", err)
			return 1
		}
	}
	if r.Errors > 0 {
		return 1
	}
	return 0
}

// fetchSnapshot reads the server's /debug/metrics document into the obs
// snapshot schema it was written from (the overflow bucket's "+Inf" bound
// round-trips via BucketSnap's unmarshaller). Returns nil when the
// endpoint is unavailable or the body does not parse — server metrics are
// a diagnostic rider, never a reason to fail the run.
func fetchSnapshot(client *http.Client, addr string) *obs.Snapshot {
	resp, err := client.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if resp.StatusCode != http.StatusOK ||
		json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return nil
	}
	return &snap
}

// serverMetrics extracts the lifetime fields the report mirrors from one
// snapshot: the tightest serve.latency_us bucket bound covering at least
// 99% of observations (0 when the snapshot or series is unavailable, -1
// when only the +Inf overflow bucket covers p99), plus the serve.shed /
// serve.reloads / serve.reload_errors counters.
func serverMetrics(snap *obs.Snapshot) (p99Bound float64, shed, reloads, reloadErrs int64) {
	if snap == nil {
		return 0, 0, 0, 0
	}
	shed, _ = snap.Counter(obs.MetricServeShed)
	reloads, _ = snap.Counter(obs.MetricServeReloads)
	reloadErrs, _ = snap.Counter(obs.MetricServeReloadErrors)
	if h := snap.Histogram(obs.MetricServeLatencyUs); h != nil && h.Count > 0 {
		var run int64
		for _, b := range h.Buckets {
			run += b.Count
			if float64(run) >= 0.99*float64(h.Count) {
				if math.IsInf(b.UpperBound, 1) {
					return -1, shed, reloads, reloadErrs
				}
				return b.UpperBound, shed, reloads, reloadErrs
			}
		}
	}
	return 0, shed, reloads, reloadErrs
}

// quantile reads the q-quantile from sorted µs samples (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// buildPayload builds one request body with the library's real feature
// width so the server accepts it against any artifact.
func buildPayload(rows int, isBinary bool) []byte {
	rng := rand.New(rand.NewSource(42))
	if isBinary {
		b := binary.LittleEndian.AppendUint32(nil, uint32(rows))
		b = binary.LittleEndian.AppendUint32(b, uint32(features.NumFeatures))
		for i := 0; i < rows*features.NumFeatures; i++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rng.NormFloat64()))
		}
		return b
	}
	var buf bytes.Buffer
	buf.WriteString(`{"rows":[`)
	for i := 0; i < rows; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('[')
		for j := 0; j < features.NumFeatures; j++ {
			if j > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, "%.6g", rng.NormFloat64())
		}
		buf.WriteByte(']')
	}
	buf.WriteString(`]}`)
	return buf.Bytes()
}
