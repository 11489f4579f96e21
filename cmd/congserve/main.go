// congserve is the congestion predictor's serving daemon: it loads a
// SavePredictor artifact and answers POST /predict with per-op vertical /
// horizontal congestion predictions, coalescing concurrent requests into
// micro-batches on the zero-alloc inference path (see internal/serve).
//
// Usage:
//
//	congserve -model FILE [-addr HOST:PORT] [flags]      serve
//	congserve -train-quick -model FILE [flags]           train a quick
//	                                                     artifact, write it
//	                                                     to FILE and exit
//
// Serving flags:
//
//	-addr HOST:PORT     listen address (default 127.0.0.1:8347; :0 picks a
//	                    free port)
//	-addr-file FILE     write the bound address to FILE once listening —
//	                    how scripts discover a :0 port
//	-debug-addr H:P     serve /debug/* on a second listener too ("" = only
//	                    on the main mux)
//	-log-level LEVEL    debug, info, warn or error (default info)
//
// Observability flags:
//
//	-trace FILE         write a Chrome trace on exit (and on SIGHUP)
//	-metrics FILE       write a JSON metrics snapshot on exit (and SIGHUP)
//	-history-interval D time-series recorder sampling interval behind
//	                    /debug/metrics/history (default 1s; 0 disables)
//	-breach-dir DIR     write breach captures (pprof + history) here
//	-breach-p99-us N    capture when a history window's serve.latency_us
//	                    p99 exceeds N microseconds (0 disables)
//	-breach-min-interval D  rate limit between captures (default 1m)
//
// Train-quick flags:
//
//	-modules A,B        benchmark designs to label (default
//	                    digit_recognition)
//	-moves N            placer moves per run (default 3000, the smoke
//	                    setting)
//	-seed N             base placement seed
//	-kind MODEL         linear, ann or gbrt (default gbrt)
//
// The server runs one independent batcher lane per GOMAXPROCS; set the
// GOMAXPROCS environment variable to change the lane count. The batching
// and admission settings are internal/serve's defaults (a 200µs coalescing
// window, 256-row batches, 4×GOMAXPROCS requests in flight); /healthz and
// the startup log report the resolved values.
//
// Signals: SIGHUP hot-reloads the model artifact from disk (also POST
// /reload); SIGINT/SIGTERM drain gracefully — in-flight requests finish,
// then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address (:0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	debugAddr := flag.String("debug-addr", "", "extra listener for /debug/* (\"\" = main mux only)")
	model := flag.String("model", "", "predictor artifact file (required)")
	logLevel := flag.String("log-level", "info", "debug, info, warn or error")
	traceFile := flag.String("trace", "", "write a Chrome trace here on exit and on SIGHUP")
	metricsFile := flag.String("metrics", "", "write a JSON metrics snapshot here on exit and on SIGHUP")
	historyInterval := flag.Duration("history-interval", time.Second, "metrics history sampling interval (0 disables the recorder)")
	breachDir := flag.String("breach-dir", "", "directory for breach captures (pprof + metrics history)")
	breachP99 := flag.Float64("breach-p99-us", 0, "capture when a window's serve.latency_us p99 exceeds this (0 disables)")
	breachMinInterval := flag.Duration("breach-min-interval", time.Minute, "rate limit between breach captures")
	trainQuick := flag.Bool("train-quick", false, "train a quick artifact to -model and exit")
	modules := flag.String("modules", "digit_recognition", "train-quick: benchmark designs, comma-separated")
	moves := flag.Int("moves", 3000, "train-quick: placer moves per run")
	seed := flag.Int64("seed", 1, "train-quick: base placement seed")
	kind := flag.String("kind", "gbrt", "train-quick: linear, ann or gbrt")
	flag.Parse()
	if *model == "" || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "congserve:", err)
		return 2
	}
	o := obs.New()
	o.Log = obs.NewLogger(os.Stderr, level)

	if *trainQuick {
		if err := trainQuickArtifact(o, *model, *modules, *kind, *moves, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "congserve:", err)
			return 1
		}
		return 0
	}
	oc := obsConfig{
		TraceFile:         *traceFile,
		MetricsFile:       *metricsFile,
		HistoryInterval:   *historyInterval,
		BreachDir:         *breachDir,
		BreachP99Us:       *breachP99,
		BreachMinInterval: *breachMinInterval,
	}
	if err := run(o, *addr, *addrFile, *debugAddr, *model, oc); err != nil {
		fmt.Fprintln(os.Stderr, "congserve:", err)
		return 1
	}
	return 0
}

// obsConfig groups the serving daemon's observability knobs.
type obsConfig struct {
	TraceFile         string
	MetricsFile       string
	HistoryInterval   time.Duration
	BreachDir         string
	BreachP99Us       float64
	BreachMinInterval time.Duration
}

// flushObs writes the -trace / -metrics artifacts. Called on SIGHUP and
// on every exit path — including a drain started by SIGTERM — so an
// interrupted run still leaves valid artifacts behind.
func flushObs(o *obs.Observer, oc obsConfig) {
	write := func(path string, emit func(*os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = emit(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "congserve: writing %s: %v\n", path, err)
		}
	}
	write(oc.TraceFile, func(f *os.File) error { return o.Trace.WriteChromeTrace(f) })
	write(oc.MetricsFile, func(f *os.File) error { return o.WriteMetricsJSON(f) })
}

// trainQuickArtifact labels the named benchmark designs with a reduced
// placer budget, trains a quick-size predictor and saves it to path — a
// self-contained way for scripts (and first-time users) to mint a valid
// serving artifact in seconds.
func trainQuickArtifact(o *obs.Observer, path, modules, kindName string, moves int, seed int64) error {
	var mk core.ModelKind
	switch strings.ToLower(kindName) {
	case "linear":
		mk = core.Linear
	case "ann":
		mk = core.ANN
	case "gbrt":
		mk = core.GBRT
	default:
		return fmt.Errorf("unknown model kind %q", kindName)
	}
	catalog := bench.Catalog()
	var mods []*ir.Module
	for _, name := range strings.Split(modules, ",") {
		name = strings.TrimSpace(name)
		gen, ok := catalog[name]
		if !ok {
			return fmt.Errorf("unknown design %q", name)
		}
		mods = append(mods, gen(bench.WithDirectives()))
	}
	cfg := flow.DefaultConfig()
	cfg.Seed = seed
	if moves > 0 {
		cfg.Place.Moves = moves
	}
	ds, _, _, err := core.BuildDatasetContext(context.Background(), mods, cfg, core.BuildOptions{
		LabelRuns: 1,
		Retry:     flow.DefaultRetryPolicy(),
		Workers:   1,
	})
	if err != nil {
		return fmt.Errorf("building training set: %w", err)
	}
	p, err := core.Train(ds, core.TrainOptions{Kind: mk, Seed: seed, Size: core.SizeQuick})
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("saving artifact: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trained: kind=%s samples=%d model=%s\n", mk.String(), ds.Len(), path)
	return nil
}

// run serves until SIGINT/SIGTERM, hot-reloading on SIGHUP.
func run(o *obs.Observer, addr, addrFile, debugAddr, model string, oc obsConfig) error {
	s := serve.New(serve.Options{Obs: o})
	m, err := s.LoadModel(model)
	if err != nil {
		return err
	}

	// Time-series recorder: samples the registry off the request path and
	// feeds /debug/metrics/history and the breach watcher. The request
	// path never touches it.
	if oc.HistoryInterval > 0 {
		rec := obs.NewRecorder(o.Reg, obs.RecorderOptions{Interval: oc.HistoryInterval})
		o.Rec = rec
		if oc.BreachDir != "" && oc.BreachP99Us > 0 {
			obs.NewBreachWatcher(rec,
				[]obs.BreachRule{{Metric: obs.MetricServeLatencyUs, P99Above: oc.BreachP99Us}},
				obs.BreachOptions{
					Dir:         oc.BreachDir,
					MinInterval: oc.BreachMinInterval,
					Log:         o.Logger(),
				})
		}
		rec.Start()
		defer rec.Stop()
	}
	defer flushObs(o, oc)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		// Published atomically, so a script polling the path never reads
		// a partially written address.
		if err := store.WriteFileAtomic(addrFile, []byte(bound+"\n")); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	httpSrv := obs.NewHTTPServer(s.Handler())

	var debugSrv *http.Server
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = obs.NewHTTPServer(o.Handler())
		go debugSrv.Serve(dln)
		if l := o.Logger(); l != nil {
			l.Info("debug listener up", "addr", dln.Addr().String())
		}
	}

	if l := o.Logger(); l != nil {
		l.Info("congserve up", "addr", bound, "model", model,
			"generation", m.Generation, "kind", m.Pred.Kind.String(),
			"window", s.Options().Window.String(), "max_batch", s.Options().MaxBatch,
			"max_inflight", s.Options().MaxInflight, "shards", runtime.GOMAXPROCS(0))
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	for {
		select {
		case err := <-serveErr:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if m, err := s.Reload(); err != nil {
					if l := o.Logger(); l != nil {
						l.Warn("SIGHUP reload rejected", "error", err)
					}
				} else if l := o.Logger(); l != nil {
					l.Info("SIGHUP reload done", "generation", m.Generation)
				}
				// Checkpoint the exporters too: a long-lived daemon's trace
				// and metrics files stay readable mid-run.
				flushObs(o, oc)
				continue
			}
			// Graceful drain: stop accepting connections and let every
			// in-flight request finish, then retire the coalescer.
			if l := o.Logger(); l != nil {
				l.Info("draining", "signal", sig.String())
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			shutdownErr := httpSrv.Shutdown(ctx)
			stopErr := s.Stop(ctx)
			cancel()
			if debugSrv != nil {
				debugSrv.Close()
			}
			if shutdownErr != nil {
				return fmt.Errorf("shutdown: %w", shutdownErr)
			}
			if stopErr != nil {
				return stopErr
			}
			if l := o.Logger(); l != nil {
				l.Info("congserve down")
			}
			return nil
		}
	}
}
