// Command perfbench is the repository's benchmark: one driver over three
// workloads that exercise different layers of the congestion predictor.
//
//	train         dataset build (HLS, RTL, place, route, timing, back-trace,
//	              features) followed by the GBRT fit
//	design-query  closed loop: IR text in, per-op congestion and source
//	              hotspots out, one designer waiting on each answer
//	serve-http    open loop: independent clients POST feature rows to an
//	              in-process /predict server over loopback
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload design-query --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured untraced; with --trace 1 a separate
// traced run replays each layer call in order and reports per-layer
// numbers, checking that the replay reproduces the real call byte for byte.
//
// "bash perfbench/run.sh repin" retrains the kept predictor artifact and
// rewrites the pinned output digests. Use it only for a deliberate change
// of behaviour.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, whatever the
// workload. Each workload defines its operation (see README.md): a dataset
// build for train, a query for design-query, a /predict request for
// serve-http.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// tailQuantile is the tail latency every workload reports as tail_ms. The
// p90 is the highest percentile this class of host reproduces: on a shared
// 2-CPU VM the p99 of a 10 s phase swings between 6 and 30 ms with
// host-level stalls, while the p90 moves by a few percent.
const tailQuantile = 0.9

// perLayer are the metrics every traced run reports. A layer the workload
// does not call reports 0.
var perLayer = []metricDef{
	{"ir.parse_ms", "ms"},
	{"hls.schedule_ms", "ms"},
	{"hls.bind_ms", "ms"},
	{"rtl.elaborate_ms", "ms"},
	{"place.ms", "ms"},
	{"route.ms", "ms"},
	{"timing.ms", "ms"},
	{"backtrace.ms", "ms"},
	{"graph.build_ms", "ms"},
	{"features.extract_ms", "ms"},
	{"ml.scaler_ms", "ms"},
	{"gbrt.fit_ms.V", "ms"},
	{"gbrt.fit_ms.H", "ms"},
	{"gbrt.fit_ms.Avg", "ms"},
	{"predict.batch_ms", "ms"},
	{"hotspots.ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.net_ms", "ms"},
	{otherSpan, "ms"},
	{"place.moves", "count"},
	{"place.accept_rate", "ratio"},
	{"route.iterations", "count"},
	{"route.overflow", "count"},
	{"dataset.samples", "count"},
	{"query.ops", "count"},
	{"serve.batches", "count"},
	{"serve.rows_per_batch", "rows"},
	{"serve.gen_late_ms", "ms"},
	{"trace.traced_ms", "ms"},
	{"trace.untraced_ms", "ms"},
	{"trace.untraced_cpu_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is the repository root; the kept artifact and pins live under
	// dir/perfbench/model.
	dir string
}

// defaultSeed is the seed the pins hold for.
const defaultSeed = 1

// outcome is what a workload returns: its counts, whether every output
// check passed, and its metric values by name.
type outcome struct {
	correct           bool
	attempted, failed int64
	values            map[string]float64
}

// result is the JSON line the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(options) (*outcome, error){
	"train":        runTrain,
	"design-query": runQuery,
	"serve-http":   runServe,
}

func main() {
	if err := run(os.Args[1:], ".", os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, runs one workload (or the repin subcommand) against the
// repository at dir and prints the result line to stdout.
func run(args []string, dir string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "repin" {
		return repin(dir, os.Stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	opts := options{dir: dir}
	fs.StringVar(&opts.workload, "workload", "", "train, design-query or serve-http")
	fs.Int64Var(&opts.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&opts.seconds, "seconds", 10, "measured time per run")
	traceFlag := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want train, design-query or serve-http)", opts.workload)
	}
	if opts.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	opts.trace = *traceFlag != 0
	out, err := wl(opts)
	if err != nil {
		return err
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return fmt.Errorf("reading peak RSS: %w", err)
		}
		out.values["peak_rss_mb"] = rss
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: out.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// timeSetup runs setup n times and returns the last result with the
// median set-up time in seconds. Each earlier result is released with
// close, so repeated set-ups leave nothing running, and the set-up garbage
// is collected before the caller starts measuring.
func timeSetup[T any](n int, setup func() (T, error), close func(T)) (T, float64, error) {
	var last, zero T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			close(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	runtime.GC()
	return last, median(times), nil
}

// checkf reports a failed output check on stderr and returns false.
func checkf(format string, args ...any) bool {
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	return false
}
