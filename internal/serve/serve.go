// Package serve is the congestion predictor's serving layer: a long-lived
// HTTP service that loads SavePredictor artifacts and answers per-op V/H
// congestion predictions to many concurrent clients as fast as the
// hardware allows.
//
// The performance machinery, bottom to top:
//
//   - Request payloads decode into pooled ml.Matrix / slice buffers
//     (sync.Pool); a warmed server handles the whole /predict path —
//     admit, decode, coalesce, predict, encode — without allocating.
//   - Cross-request micro-batch coalescing: pending predictions are
//     collected for a bounded window (Options.Window, a few hundred µs)
//     or until a row cap (Options.MaxBatch), then scored with ONE
//     zero-alloc core.Predictor.PredictBatchInto call. Batch-of-batches
//     beats per-request predict because the scaler and the compiled
//     GBRT trees amortize their setup and stay hot in cache across the
//     whole batch. The batcher also flushes early the moment every
//     admitted request is already in the batch (the admission semaphore
//     proves no companion can arrive), so closed-loop clients never pay
//     the window — only genuinely concurrent traffic does.
//   - Multi-core scale-out: the server runs one independent batcher
//     shard (lane) per GOMAXPROCS, each owning its own admission
//     semaphore, submit queue, window timer and batch scratch. A request
//     goes to an idle shard when there is one, trying its pooled affinity
//     hint first, and otherwise to the first shard with a free slot, so
//     each core's batcher runs its own PredictBatchInto instead of
//     serializing on one batcher goroutine.
//     Predictions are byte-identical across shard counts: sharding
//     changes which rows share a PredictBatchInto call, never what a row
//     scores.
//   - Admission control: a max-inflight semaphore per shard sheds excess
//     load with a fast 429 instead of queueing without bound; a request
//     is shed only when every shard is saturated.
//   - Hot reload: models live behind one atomic pointer shared by all
//     shards; SIGHUP or POST /reload loads and fully validates the
//     artifact, then swaps. Each batch loads the pointer exactly once, so
//     a batch is always scored by a single generation; an invalid
//     artifact is rejected with zero downtime.
//   - Graceful drain: Stop admits no new work, then retires the shards in
//     fixed index order — acquiring every admission slot of a shard
//     proves no request is between admission and submit there, after
//     which its batcher flushes its last window and exits.
//
// Every stage reports into the internal/obs registry through one set of
// server-wide handles that all shards share.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Serving errors. The HTTP layer maps them to statuses; embedded callers
// match with errors.Is.
var (
	// ErrShed marks a request rejected by admission control (HTTP 429).
	ErrShed = errors.New("serve: shed: too many requests in flight")
	// ErrNoModel marks a request arriving before any model was loaded
	// (HTTP 503).
	ErrNoModel = errors.New("serve: no model loaded")
	// ErrDraining marks a request arriving during shutdown (HTTP 503).
	ErrDraining = errors.New("serve: draining")
)

// Options tunes the server. The zero value of each field selects the
// default noted on it.
type Options struct {
	// MaxBatch caps the rows of one coalesced batch (default 256).
	MaxBatch int
	// Window is how long a shard's batcher holds an open batch waiting
	// for companions. The zero value selects the default 200µs; a
	// negative value means "never wait" — a batch still coalesces
	// whatever is already queued, but closes immediately.
	Window time.Duration
	// MaxInflight is the total admission cap across all shards: requests
	// beyond it are shed with 429 (default 4×GOMAXPROCS, min 16). It is
	// rounded up to a multiple of the shard count so every shard gets the
	// same slot count — the per-shard semaphore is what keeps the
	// allQueued early-flush proof local to a shard.
	MaxInflight int
	// MaxBodyBytes bounds one request body (default 16 MiB).
	MaxBodyBytes int64
	// Obs receives request metrics; nil disables observation.
	Obs *obs.Observer

	// shards is the number of independent batcher shards. Production
	// always runs one per GOMAXPROCS; only in-package tests pin it.
	shards int
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Window == 0 {
		o.Window = 200 * time.Microsecond
	}
	if o.Window < 0 {
		o.Window = 0
	}
	if o.shards <= 0 {
		o.shards = runtime.GOMAXPROCS(0)
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * runtime.GOMAXPROCS(0)
		if o.MaxInflight < 16 {
			o.MaxInflight = 16
		}
	}
	// Round the cap up to a whole number of slots per shard.
	perShard := (o.MaxInflight + o.shards - 1) / o.shards
	o.MaxInflight = perShard * o.shards
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	return o
}

// metrics holds the server's resolved registry handles, shared by every
// shard. Resolved once at construction, so the hot path pays one atomic
// per event; every field no-ops when observation is off.
type metrics struct {
	requests, shed, errs *obs.Counter
	predictions, batches *obs.Counter
	reloads, reloadErrs  *obs.Counter
	batchRows, latency   *obs.Histogram
	inflight, occupancy  *obs.Gauge
}

func newMetrics(o *obs.Observer) metrics {
	r := o.Metrics()
	return metrics{
		requests:    r.Counter(obs.MetricServeRequests),
		shed:        r.Counter(obs.MetricServeShed),
		errs:        r.Counter(obs.MetricServeErrors),
		predictions: r.Counter(obs.MetricServePredictions),
		batches:     r.Counter(obs.MetricServeBatches),
		reloads:     r.Counter(obs.MetricServeReloads),
		reloadErrs:  r.Counter(obs.MetricServeReloadErrors),
		batchRows:   r.Histogram(obs.MetricServeBatchRows, obs.BatchRowsBuckets),
		latency:     r.Histogram(obs.MetricServeLatencyUs, obs.LatencyMicrosBuckets),
		inflight:    r.Gauge(obs.MetricServeInflight),
		occupancy:   r.Gauge(obs.MetricServeBatchOccupancy),
	}
}

// shard is one independent coalescing lane: its own admission semaphore,
// submit queue and batcher goroutine.
type shard struct {
	srv *Server
	// sem is this shard's slice of the admission cap: one slot per
	// in-flight request routed here. A request holds its slot from
	// admission until after its response is encoded, which is what makes
	// len(sem) an upper bound on the jobs that can still join this
	// shard's open batch (see allQueued) and what lets Stop prove the
	// shard quiescent by acquiring every slot.
	sem    chan struct{}
	submit chan *job
	done   chan struct{}
}

// Server is the prediction service core. Construct with New, publish a
// model with LoadModel (or Reload), mount Handler on an http.Server, and
// retire with Stop.
type Server struct {
	opts      Options
	obs       *obs.Observer
	models    modelSlot
	modelPath atomic.Pointer[string]

	// shards are the independent batcher lanes; see Options.shards.
	shards []*shard
	met    metrics

	draining atomic.Bool
	stopOnce sync.Once
	stopErr  error
}

// New starts one coalescing loop per shard and returns a server with no
// model loaded (requests answer 503 until LoadModel succeeds).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{opts: opts, obs: opts.Obs, met: newMetrics(opts.Obs)}
	perShard := opts.MaxInflight / opts.shards
	s.shards = make([]*shard, opts.shards)
	for i := range s.shards {
		sh := &shard{
			srv:    s,
			sem:    make(chan struct{}, perShard),
			submit: make(chan *job, perShard),
			done:   make(chan struct{}),
		}
		s.shards[i] = sh
		go sh.batchLoop()
	}
	return s
}

// Options returns the resolved (defaulted) options the server runs with.
func (s *Server) Options() Options { return s.opts }

// Model returns the currently serving model (nil before the first load).
func (s *Server) Model() *Model { return s.models.Load() }

// LoadModel loads, validates and publishes the artifact at path, which
// also becomes the path Reload re-reads. The publish is one atomic
// pointer store observed by every shard: no two batches formed after it
// can disagree about the generation.
func (s *Server) LoadModel(path string) (*Model, error) {
	m, err := s.models.Reload(path)
	if err != nil {
		s.met.reloadErrs.Inc()
		return nil, err
	}
	s.modelPath.Store(&path)
	s.met.reloads.Inc()
	if l := s.obs.Logger(); l != nil {
		l.Info("model loaded", "path", path, "generation", m.Generation, "kind", m.Pred.Kind.String())
	}
	return m, nil
}

// Reload re-reads the artifact last given to LoadModel and swaps it in
// atomically. On error the previous model keeps serving untouched.
func (s *Server) Reload() (*Model, error) {
	p := s.modelPath.Load()
	if p == nil {
		return nil, fmt.Errorf("serve: reload: no model path configured")
	}
	return s.LoadModel(*p)
}

// admit routes a request to a shard. It first looks for an idle shard,
// one with no request in flight: the job's pooled affinity hint, then
// every other shard once, round-robin from the hint. Only when every
// shard is busy does it take the first shard with a free slot, in the same
// order. A lone request on its shard flushes the moment it is submitted
// (allQueued) and is scored on that shard's batcher in parallel with the
// others, whereas a request sent to a busy shard waits behind its batch
// and may make that batch wait out the window for it. Hints alone could
// funnel every request into one lane while another sat idle: handler
// goroutines move between Ps, so several Ps' pools can hold jobs stamped
// with the same shard. A successful pick holds one slot of that shard's
// semaphore and updates the hint; nil means every shard is saturated and
// the request must shed. The probes are non-blocking, so all-shards-full
// is a fast 429, never a wait.
func (s *Server) admit(j *job) *shard {
	n := len(s.shards)
	h := int(uint32(j.shard)) % n
	// Pass 0 takes only an idle shard, pass 1 any shard with a free slot.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			k := h + i
			if k >= n {
				k -= n
			}
			sh := s.shards[k]
			if pass == 0 && len(sh.sem) > 0 {
				continue
			}
			select {
			case sh.sem <- struct{}{}:
				j.shard = int32(k)
				return sh
			default:
			}
		}
	}
	return nil
}

// ServeBytes runs the whole /predict hot path on one raw payload:
// admission, pooled decode, coalesced prediction and response encoding
// appended to dst. It exists apart from the HTTP handler so the
// zero-alloc guard and the throughput benchmark can drive the exact
// serving path without a net/http connection in front. binary selects
// the ContentF64 codec; otherwise the payload is JSON.
func (s *Server) ServeBytes(body []byte, binary bool, dst []byte) ([]byte, error) {
	start := time.Now()
	j := getJob()
	sh := s.admit(j)
	if sh == nil {
		s.met.shed.Inc()
		putJob(j)
		return dst, ErrShed
	}
	s.met.requests.Inc()
	s.met.inflight.Add(1)
	dst, err := s.serveJob(sh, j, body, binary, dst)
	if err != nil {
		s.met.errs.Inc()
	}
	putJob(j)
	<-sh.sem
	s.met.inflight.Add(-1)
	s.met.latency.Observe(float64(time.Since(start)) / float64(time.Microsecond))
	return dst, err
}

// serveJob decodes into the pooled job, routes it through the shard's
// coalescer and encodes the response. Split from ServeBytes so the
// semaphore slot and job are released on every path.
func (s *Server) serveJob(sh *shard, j *job, body []byte, binary bool, dst []byte) ([]byte, error) {
	var err error
	if binary {
		err = decodeF64(body, &j.m)
	} else {
		err = decodeJSONRows(body, &j.m)
	}
	if err != nil {
		return dst, err
	}
	if j.m.Rows > 0 {
		mdl := s.models.Load()
		switch {
		case mdl == nil:
			return dst, ErrNoModel
		case j.m.Cols != mdl.Pred.NumFeatures():
			return dst, &core.BatchShapeError{Row: 0, Got: j.m.Cols, Want: mdl.Pred.NumFeatures()}
		case s.draining.Load():
			return dst, ErrDraining
		}
		j.rows = j.m.RowViews(j.rows)
		j.sizeOutputs()
		sh.submit <- j
		<-j.done
		if j.err != nil {
			return dst, j.err
		}
	} else {
		j.sizeOutputs()
	}
	if binary {
		return appendF64Response(dst, j.vert, j.horiz, j.avg), nil
	}
	return appendJSONResponse(dst, j.vert, j.horiz, j.avg), nil
}

// Stop drains the server: new requests shed immediately, every admitted
// request completes (each batcher flushes its final window), and the
// coalescing goroutines exit. Shards drain in fixed index order — the one
// lock-ordering rule of the package, shared with any future multi-shard
// acquirer — by taking every admission slot of a shard before closing its
// submit queue: once Stop owns all slots, no request on that shard is
// between admission and submit, so closing the channel is safe. Stop is
// idempotent; ctx bounds the wait.
func (s *Server) Stop(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		for _, sh := range s.shards {
			for i := 0; i < cap(sh.sem); i++ {
				select {
				case sh.sem <- struct{}{}:
				case <-ctx.Done():
					s.stopErr = fmt.Errorf("serve: stop: %w", ctx.Err())
					return
				}
			}
			close(sh.submit)
			select {
			case <-sh.done:
			case <-ctx.Done():
				s.stopErr = fmt.Errorf("serve: stop: %w", ctx.Err())
				return
			}
		}
	})
	return s.stopErr
}

// connBuf is the per-request byte working set: the body read buffer and
// the response build buffer, pooled together.
type connBuf struct {
	in, out []byte
}

var connBufPool = sync.Pool{New: func() any { return &connBuf{} }}

// Handler returns the service mux:
//
//	POST /predict  — score a batch of feature rows (JSON or ContentF64)
//	GET  /healthz  — model generation, kind, feature count, drain state
//	POST /reload   — hot-swap the model artifact from disk
//	GET  /debug/*  — the obs debug endpoints (metrics, trace, vars)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/reload", s.handleReload)
	if s.obs != nil {
		mux.Handle("/debug/", s.obs.Handler())
	}
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if r.ContentLength > s.opts.MaxBodyBytes {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	binary := r.Header.Get("Content-Type") == ContentF64
	buf := connBufPool.Get().(*connBuf)
	defer connBufPool.Put(buf)
	body, err := readBody(r, buf.in, s.opts.MaxBodyBytes)
	buf.in = body[:0]
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	out, err := s.ServeBytes(body, binary, buf.out[:0])
	buf.out = out[:0]
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	if binary {
		w.Header().Set("Content-Type", ContentF64)
	} else {
		w.Header().Set("Content-Type", ContentJSON)
	}
	w.Write(out)
}

// statusFor maps serving errors to HTTP statuses: client data errors are
// 400s, load shedding is 429, lifecycle states are 503.
func statusFor(err error) int {
	var shape *core.BatchShapeError
	switch {
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNoModel), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadPayload), errors.As(err, &shape):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

var errBodyTooLarge = errors.New("serve: request body too large")

// readBody reads the whole request body into buf (grown as needed,
// returned for reuse), honoring the byte cap without trusting
// Content-Length.
func readBody(r *http.Request, buf []byte, max int64) ([]byte, error) {
	if n := r.ContentLength; n > 0 && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	buf = buf[:0]
	for {
		if int64(len(buf)) > max {
			return buf, errBodyTooLarge
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, fmt.Errorf("serve: reading request body: %w", err)
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", ContentJSON)
	m := s.models.Load()
	if m == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\n  \"status\": \"no model\",\n  \"generation\": 0\n}\n")
		return
	}
	fmt.Fprintf(w, "{\n  \"status\": %q,\n  \"generation\": %d,\n  \"model\": %q,\n  \"kind\": %q,\n  \"features\": %d,\n  \"loaded_at\": %q,\n  \"window_us\": %d,\n  \"max_batch\": %d,\n  \"shards\": %d,\n  \"max_inflight\": %d\n}\n",
		map[bool]string{false: "ok", true: "draining"}[s.draining.Load()],
		m.Generation, m.Path, m.Pred.Kind.String(), m.Pred.NumFeatures(),
		m.LoadedAt.UTC().Format(time.RFC3339Nano),
		s.opts.Window.Microseconds(), s.opts.MaxBatch, s.opts.shards, s.opts.MaxInflight)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	m, err := s.Reload()
	if err != nil {
		if l := s.obs.Logger(); l != nil {
			l.Warn("model reload rejected", "error", err)
		}
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", ContentJSON)
	fmt.Fprintf(w, "{\n  \"status\": \"reloaded\",\n  \"generation\": %d,\n  \"model\": %q\n}\n", m.Generation, m.Path)
}
