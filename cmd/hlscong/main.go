// hlscong is the command-line front end of the congestion predictor: it
// regenerates the paper's tables and figures, trains the model, and prints
// predicted congestion hotspots for a benchmark design without running
// placement and routing.
//
// Usage:
//
//	hlscong [flags] <command>
//
// Commands:
//
//	table1 | table3 | table4 | table5 | table6   regenerate a paper table
//	fig1   | fig5   | fig6                       regenerate a paper figure
//	all                                          everything above in order
//	predict                                      train GBRT, predict hotspots
//	                                             for Face Detection and
//	                                             compare with the real PAR
//	report                                       HLS synthesis/utilization/QoR
//	tune                                         grid search + k-fold CV
//	ablate                                       design-choice ablations
//	hotspots                                     hotspot-detection score
//	generalize                                   leave-one-design-out accuracy
//	build                                        build the labelled dataset and
//	                                             write its canonical encoded
//	                                             artifact (-out)
//
// Flags:
//
//	-quick       use shrunken ML models (fast smoke run)
//	-seed N      split/model seed (default 42)
//	-design D    predict target: baseline|noinline|replication (default baseline)
//	-timeout D   abort after D (e.g. 90s, 10m); flow runs stop within one
//	             placer/router iteration
//	-workers N   concurrent flow runs / grid-search cells (0 = one per CPU,
//	             1 = sequential; the output is identical either way)
//	-flowcache N memoize up to N completed flow runs so repeated
//	             (design, config, seed) implementations are served from
//	             cache (0 disables; results are identical either way)
//	-store-dir D persist completed flow runs to a crash-safe artifact
//	             store under D, the flow cache's disk tier: a rerun (or a
//	             run killed mid-sweep) restores finished runs from disk
//	             instead of recomputing them; results are identical either
//	             way. Needs the flow cache (-flowcache > 0)
//	-store-max-bytes N
//	             evict least-recently-used store entries past N bytes
//	             (0 = unbounded)
//	-cpuprofile F / -memprofile F
//	             write a CPU / heap profile to F for `go tool pprof`
//	-trace F     write a Chrome trace_event JSON of every flow stage, retry
//	             and cache event to F (load in chrome://tracing or Perfetto)
//	-metrics F   write a JSON snapshot of all counters/gauges/histograms to F
//	-log-level L stream structured logs to stderr at debug|info|warn|error
//	-debug-addr A
//	             serve /debug/metrics, /debug/trace and /debug/vars on A
//	             (e.g. localhost:6060) for the duration of the run, with
//	             /debug/metrics/history sampled every second
//
// Build flags:
//
//	-modules M1,M2
//	             comma-separated benchmark names (default: the paper's
//	             three training implementations)
//	-label-runs N
//	             placement seeds averaged per label (default 3)
//	-out F       write the encoded dataset artifact to F
//
// Any of the four observability flags arms the observer; an end-of-run
// per-stage wall-time summary is then printed to stderr. With none set the
// run is entirely unobserved and byte-identical output is guaranteed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/backtrace"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/flowcache"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/store"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the exit code back through the deferred profile flushes
// (os.Exit in main would skip them).
func realMain() (code int) {
	quick := flag.Bool("quick", false, "use shrunken ML models")
	seed := flag.Int64("seed", 42, "split/model seed")
	design := flag.String("design", "baseline", "predict target: baseline|noinline|replication")
	timeout := flag.Duration("timeout", 0, "abort after this long (0 = no limit)")
	workers := flag.Int("workers", 0, "concurrent flow runs / CV cells (0 = one per CPU, 1 = sequential)")
	cacheSize := flag.Int("flowcache", flowcache.DefaultMaxEntries,
		"memoize up to N completed flow runs (0 disables)")
	storeDir := flag.String("store-dir", "",
		"persist completed flow runs to this artifact store directory (needs -flowcache > 0)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0,
		"evict least-recently-used store entries past this many bytes (0 = unbounded)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON to this file")
	metricsFile := flag.String("metrics", "", "write a JSON metrics snapshot to this file")
	logLevel := flag.String("log-level", "", "structured logs to stderr: debug|info|warn|error")
	debugAddr := flag.String("debug-addr", "", "serve /debug/{metrics,trace,vars} on this address")
	var bf buildFlags
	flag.StringVar(&bf.modules, "modules", "", "build: comma-separated benchmark names (default: training set)")
	flag.IntVar(&bf.labelRuns, "label-runs", 0, "build: placement seeds averaged per label (0 = paper default)")
	flag.StringVar(&bf.out, "out", "", "build: write the encoded dataset artifact to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	if *storeDir != "" && *cacheSize <= 0 {
		fmt.Fprintln(os.Stderr, "hlscong: -store-dir needs the flow cache: the store is its disk tier, and -flowcache 0 disables it")
		return 2
	}

	// No internal invariant panic may take the process down without a
	// diagnosis: convert it to a message and a non-zero exit. Registered
	// before the profile defers so those still flush on the way out.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "hlscong: internal panic: %v\n", r)
			code = 3
		}
	}()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hlscong:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "hlscong:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hlscong:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hlscong:", err)
			}
		}()
	}

	// SIGTERM gets the same graceful treatment as ^C: the context cancels,
	// flow runs stop at the next iteration boundary, and the deferred
	// exporter flushes below still write their files on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	cfg := experiments.DefaultConfig()
	cfg.Quick = *quick
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Ctx = ctx
	var cache *flowcache.Cache
	if *cacheSize > 0 {
		// Repeated (design, config, seed) implementations — label runs,
		// ablations, the "all" command — are served from cache; the output
		// is byte-identical with the cache off.
		cache = flowcache.New(*cacheSize)
		cfg.Flow.Cache = cache
	} else {
		cfg.Flow.Cache = nil // -flowcache 0 disables memoization entirely
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{MaxBytes: *storeMaxBytes})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hlscong:", err)
			return 1
		}
		// Completed flow runs write through the flow cache to the store,
		// so a rerun, or a build killed mid-sweep, restores them from disk.
		cache.AttachStore(st)
	}

	// Any observability flag arms the observer. Observation rides along on
	// the flow config and never changes what the commands compute or print
	// to stdout; traces, metrics and the stage summary go to files/stderr.
	observing := *traceFile != "" || *metricsFile != "" || *logLevel != "" || *debugAddr != ""
	var o *obs.Observer
	if observing {
		var err error
		if o, err = newObserver(*logLevel, *debugAddr); err != nil {
			fmt.Fprintln(os.Stderr, "hlscong:", err)
			return 2
		}
		cfg.Flow.Obs = o
		if cache != nil {
			cache.SetObserver(o) // forwards to the attached store, if any
		}
		if *debugAddr != "" {
			addr, err := o.Serve(*debugAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hlscong:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "hlscong: debug endpoint: http://%s/debug/metrics\n", addr)
			o.Rec.Start()
			defer o.Rec.Stop()
		}
		// SIGHUP flushes the exporters mid-run — a long dataset build can be
		// inspected in chrome://tracing without waiting for (or killing) the
		// process. The final deferred flush below still rewrites the files
		// with the complete picture on exit.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if err := writeObsOutputs(o, *traceFile, *metricsFile); err != nil {
					fmt.Fprintln(os.Stderr, "hlscong:", err)
				}
			}
		}()
		// Flush trace/metrics and print the stage summary even when the
		// command fails — a failed run's trace is the one you want most.
		defer func() {
			if err := writeObsOutputs(o, *traceFile, *metricsFile); err != nil {
				fmt.Fprintln(os.Stderr, "hlscong:", err)
				if code == 0 {
					code = 1
				}
			}
			fmt.Fprint(os.Stderr, stageSummary(o, cache))
		}()
	}

	var err error
	if flag.Arg(0) == "build" {
		err = runBuild(ctx, cfg, bf)
	} else {
		err = run(cfg, flag.Arg(0), *design)
	}
	if err != nil {
		reportError(err)
		return 1
	}
	return 0
}

// newObserver builds the run's observer from the observability flags. With
// a debug address it also attaches a flight recorder, sampling at
// congserve's default 1 s interval, so the endpoint's
// /debug/metrics/history (and congtop pointed at it) has samples; the
// caller starts and stops it.
func newObserver(logLevel, debugAddr string) (*obs.Observer, error) {
	o := obs.New()
	if logLevel != "" {
		lv, err := obs.ParseLevel(logLevel)
		if err != nil {
			return nil, err
		}
		o.Log = obs.NewLogger(os.Stderr, lv)
	}
	if debugAddr != "" {
		o.Rec = obs.NewRecorder(o.Reg, obs.RecorderOptions{Interval: time.Second})
	}
	return o, nil
}

// writeObsOutputs exports the collected spans and metrics to the requested
// files.
func writeObsOutputs(o *obs.Observer, traceFile, metricsFile string) error {
	if traceFile != "" && o.Trace != nil {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		err = o.Trace.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "hlscong: wrote %d spans to %s\n", o.Trace.Len(), traceFile)
	}
	if metricsFile != "" {
		f, err := os.Create(metricsFile)
		if err != nil {
			return err
		}
		err = o.WriteMetricsJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "hlscong: wrote metrics snapshot to %s\n", metricsFile)
	}
	return nil
}

// stageSummary renders the end-of-run per-stage wall-time table from the
// metrics registry, plus flow/cache/store totals.
func stageSummary(o *obs.Observer, cache *flowcache.Cache) string {
	snap := o.Metrics().Snapshot()
	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	add("\nRUN SUMMARY (wall time per flow stage)\n")
	add("  %-10s %6s %10s %10s %10s %10s\n", "stage", "runs", "total", "mean", "min", "max")
	printed := false
	for _, stage := range flow.Stages {
		h := snap.Histogram(obs.MetricStagePrefix + stage)
		if h == nil || h.Count == 0 {
			continue
		}
		printed = true
		add("  %-10s %6d %9.1fms %9.2fms %9.2fms %9.2fms\n",
			stage, h.Count, h.Sum, h.Mean, h.Min, h.Max)
	}
	if !printed {
		add("  (no flow stages ran)\n")
	}
	if runs, ok := snap.Counter(obs.MetricFlowRuns); ok {
		retries, _ := snap.Counter(obs.MetricFlowRetries)
		faults, _ := snap.Counter(obs.MetricFlowFaults)
		add("  flow runs: %d (%d retries, %d faults injected)\n", runs, retries, faults)
	}
	if cache != nil {
		add("  %s\n", cache.Stats())
		if st := cache.Store(); st != nil {
			add("  %s\n", st.Stats())
		}
	}
	if cps, ok := snap.Gauge(obs.MetricGridCandidatesPerSec); ok {
		add("  grid search: %.1f candidates/sec\n", cps)
	}
	return string(b)
}

// reportError prints the failure with its stage-error chain spelled out,
// so a failed dataset build names every skipped design, stage and seed.
func reportError(err error) {
	fmt.Fprintln(os.Stderr, "hlscong:", err)
	for _, se := range stageErrors(err) {
		fmt.Fprintf(os.Stderr, "hlscong:   stage=%s design=%q seed=%d attempt-cause: %v\n",
			se.Stage, se.Design, se.Seed, se.Err)
	}
	switch {
	case errors.Is(err, flow.ErrTimedOut):
		fmt.Fprintln(os.Stderr, "hlscong: run exceeded -timeout; rerun with a larger budget or -quick")
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "hlscong: interrupted")
	}
}

// stageErrors collects every *flow.StageError in the error tree, walking
// both single-cause chains and errors.Join lists.
func stageErrors(err error) []*flow.StageError {
	var out []*flow.StageError
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if se, ok := e.(*flow.StageError); ok {
			out = append(out, se)
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				walk(c)
			}
		}
	}
	walk(err)
	return out
}

func run(cfg experiments.Config, cmd, design string) error {
	switch cmd {
	case "table1":
		return show(experiments.TableI(cfg))
	case "table3":
		return show(experiments.TableIII(cfg))
	case "table4":
		return show(experiments.TableIV(cfg))
	case "table5":
		return show(experiments.TableV(cfg))
	case "table6":
		return show(experiments.TableVI(cfg))
	case "fig1":
		return show(experiments.Figure1(cfg))
	case "fig5":
		return show(experiments.Figure5(cfg))
	case "fig6":
		return show(experiments.Figure6(cfg))
	case "all":
		for _, c := range []string{"table1", "fig1", "table3", "table4", "table5", "table6", "fig5", "fig6"} {
			if err := run(cfg, c, design); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case "predict":
		return predict(cfg, design)
	case "report":
		var dir bench.Directives
		switch design {
		case "baseline":
			dir = bench.WithDirectives()
		case "noinline":
			dir = bench.NotInline()
		case "replication":
			dir = bench.Replication()
		default:
			return fmt.Errorf("unknown design %q", design)
		}
		res, err := experiments.RunOnce(bench.FaceDetection(dir), cfg)
		if err != nil {
			return err
		}
		fmt.Print(report.Full(res))
		return nil
	case "tune":
		results, err := experiments.TuneAll(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTuning(results))
		var total time.Duration
		for _, r := range results {
			total += r.Elapsed
		}
		fmt.Printf("total grid-search wall time: %.2fs\n", total.Seconds())
		return nil
	case "ablate":
		return ablate(cfg)
	case "hotspots":
		res, err := experiments.HotspotDetection(cfg)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		return nil
	case "generalize":
		ds, _, err := cfg.PaperDataset()
		if err != nil {
			return err
		}
		res, err := experiments.Generalization(cfg, ds)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// formatter is what every experiment result knows how to do.
type formatter interface{ Format() string }

func show[T formatter](res T, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

// ablate runs the design-choice ablations: feature-category knockout, the
// marginal-filter threshold sweep, and label-averaging depth.
func ablate(cfg experiments.Config) error {
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		return err
	}
	cat, err := experiments.AblateCategories(cfg, ds)
	if err != nil {
		return err
	}
	fmt.Print(cat.Format())
	sweep, err := experiments.SweepFilterThreshold(cfg, ds, []float64{0, 0.5, 0.75, 0.9, 1.0})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFilterSweep(sweep))
	runs, err := experiments.AblateLabelAveraging(cfg, []int{1, 2, 3})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatLabelRuns(runs))
	return nil
}

// predict demonstrates the prediction phase: train on the paper's dataset,
// estimate per-op congestion for the requested Face Detection variant with
// the HLS-side information only, report the hottest source lines, then run
// the real PAR once to show where the actual congestion landed.
func predict(cfg experiments.Config, design string) error {
	var dir bench.Directives
	switch design {
	case "baseline":
		dir = bench.WithDirectives()
	case "noinline":
		dir = bench.NotInline()
	case "replication":
		dir = bench.Replication()
	default:
		return fmt.Errorf("unknown design %q", design)
	}
	fmt.Println("building training dataset (3 implementations, full flow)...")
	ds, _, err := cfg.PaperDataset()
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %d samples (%.2f%% marginal)\n", ds.Len(), 100*ds.MarginalFraction())
	pred, err := core.Train(ds, core.TrainOptions{Kind: core.GBRT, Filter: true, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	m := bench.FaceDetection(dir)
	preds, err := pred.PredictModule(m, cfg.Flow)
	if err != nil {
		return err
	}
	fmt.Printf("\npredicted congestion hotspots for %s/%s (no PAR run):\n", m.Name, design)
	hot := core.Hotspots(preds)
	for i, h := range hot {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-22s ops=%-4d maxAvg=%6.1f%% meanV=%6.1f%% meanH=%6.1f%%\n",
			h.Loc, h.Ops, h.MaxAvg, h.MeanV, h.MeanH)
	}
	fmt.Println("\nvalidating against one real place-and-route run...")
	res, err := experiments.RunOnce(m, cfg)
	if err != nil {
		return err
	}
	actual := backtrace.HotspotsBySource(backtrace.Trace(res))
	fmt.Println("actual congestion hotspots after PAR:")
	for i, h := range actual {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-22s ops=%-4d maxAvg=%6.1f%% meanV=%6.1f%% meanH=%6.1f%%\n",
			h.Loc, h.Ops, h.MaxAvg, h.MeanV, h.MeanH)
	}
	return nil
}
