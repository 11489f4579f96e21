package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/store"
)

// CoordinatorOptions tunes a Coordinator.
type CoordinatorOptions struct {
	// LeaseTTL is how long a leased cell may go unresolved before the
	// coordinator declares its worker lost and re-queues the cell.
	// Defaults to 30s.
	LeaseTTL time.Duration
	// StealAfter is the lease age past which an idle worker may steal an
	// in-flight cell (run it concurrently with the original holder —
	// completion idempotency resolves the race). Defaults to LeaseTTL/2.
	StealAfter time.Duration
	// MaxLease caps cells handed out per lease request. Defaults to 1 —
	// finest-grained balancing; raise it for very cheap cells.
	MaxLease int
	// Obs observes the fleet: fleet.* counters and per-worker gauges.
	Obs *obs.Observer
	// Now is the lease clock, injectable for expiry tests. Defaults to
	// time.Now.
	Now func() time.Time
}

// Cell lease/queue states.
const (
	cellPending = iota // waiting in the queue
	cellLeased         // handed to ≥1 worker, unresolved
	cellDone           // verified result accepted
	cellFailed         // worker reported a terminal flow failure
)

type cellSlot struct {
	cell core.Cell
	// keys are the flow.CacheKeys a completion may verify against:
	// keys[k] is the key of retry attempt k's escalated config (keys[0]
	// the base config, which leases advertise). A worker's RunWithRetry
	// returns the first attempt that succeeds, so the artifact may hash
	// to any of them.
	keys     []string
	state    int
	worker   string    // current lease holder (last one, when stolen)
	deadline time.Time // lease expiry
	leasedAt time.Time
	res      *flow.Result
	err      error
}

type workerStats struct {
	done  int64
	gauge *obs.Gauge
}

// Coordinator owns one build's cell grid and serves the fleet protocol:
//
//	GET  /fleet/spec               → BuildSpec JSON
//	POST /fleet/lease              → claim cells ({"worker","max"} in)
//	POST /fleet/complete?slot&worker → submit one encoded flow result
//	POST /fleet/fail?slot&worker   → report one terminal cell failure
//	GET  /fleet/status             → progress counters JSON
//
// Construct with NewCoordinator, serve its Handler (or call Serve), then
// run the build through Execute — the core.CellExecutor side of the
// protocol.
//
// Completions are verified against the cell's full escalation key set:
// the cache key of the base config plus one per retry attempt
// (flow.RetryPolicy.Escalate re-rolls the seed and relaxes routing, so
// every attempt has a distinct key, and a worker whose cell succeeded on
// a retry legitimately delivers the escalated artifact — rejecting it
// would re-queue the cell forever). Determinism is preserved: which
// attempt first succeeds is a pure function of (module, config, policy),
// so every worker — and the local reference build — produces the same
// artifact for the cell.
type Coordinator struct {
	opts     CoordinatorOptions
	specJSON []byte
	retry    flow.RetryPolicy // the escalation workers run under

	// traceID names the fleet-wide trace (a digest of the spec, so it is
	// stable across coordinator restarts of the same build). It is only
	// advertised once tracing is armed and Execute has opened the root
	// span.
	traceID string

	mu        sync.Mutex
	slots     []cellSlot
	pending   []int // queue of slot indices, FIFO
	remaining int
	started   bool
	buildDone chan struct{} // closed when remaining hits 0
	workers   map[string]*workerStats
	root      *obs.Span // the fleet.build span worker lanes parent under

	cDone, cFailed, cSteal, cLost, cDup, cBad *obs.Counter
	gWorkers                                  *obs.Gauge
	o                                         *obs.Observer
	reg                                       *obs.Registry
}

// NewCoordinator prepares a coordinator for the build the spec describes.
// Cells are enqueued later, by Execute.
func NewCoordinator(spec *BuildSpec, opts CoordinatorOptions) (*Coordinator, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.StealAfter <= 0 {
		opts.StealAfter = opts.LeaseTTL / 2
	}
	if opts.MaxLease <= 0 {
		opts.MaxLease = 1
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	specJSON, err := EncodeSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode spec: %w", err)
	}
	o := opts.Obs
	// StatusSnapshot reads these counters back, so they must be real even
	// without an observer: fall back to a private registry (nil obs
	// handles are silent no-ops that would freeze the status at zero).
	reg := o.Metrics()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	sum := sha256.Sum256(specJSON)
	c := &Coordinator{
		opts:      opts,
		specJSON:  specJSON,
		traceID:   hex.EncodeToString(sum[:8]),
		retry:     spec.Retry.policy(),
		buildDone: make(chan struct{}),
		workers:   make(map[string]*workerStats),
		o:         o,
		reg:       reg,
		cDone:     reg.Counter(obs.MetricFleetCellsDone),
		cFailed:   reg.Counter(obs.MetricFleetCellsFailed),
		cSteal:    reg.Counter(obs.MetricFleetSteals),
		cLost:     reg.Counter(obs.MetricFleetWorkerLost),
		cDup:      reg.Counter(obs.MetricFleetDupComplete),
		cBad:      reg.Counter(obs.MetricFleetBadComplete),
		gWorkers:  reg.Gauge(obs.MetricFleetWorkers),
	}
	return c, nil
}

// Handler returns the coordinator's HTTP handler (mountable under any
// mux; paths are absolute).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/spec", c.handleSpec)
	mux.HandleFunc("/fleet/lease", c.handleLease)
	mux.HandleFunc("/fleet/complete", c.handleComplete)
	mux.HandleFunc("/fleet/fail", c.handleFail)
	mux.HandleFunc("/fleet/status", c.handleStatus)
	return mux
}

// Serve listens on addr and serves the fleet protocol until the returned
// shutdown func is called. It reports the bound address (useful with
// ":0").
func (c *Coordinator) Serve(addr string) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	srv := obs.NewHTTPServer(c.Handler())
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// Execute is the core.CellExecutor the coordinator contributes to
// core.BuildDatasetExec: it enqueues the requested cells, lets joined
// workers drain the queue, and returns one outcome per cell once every
// cell is resolved (or ctx is cancelled). Keys are derived from the exact
// per-cell configs the build uses, so worker results verify against the
// same content addresses a local build would produce.
func (c *Coordinator) Execute(ctx context.Context, mods []*ir.Module, cells []core.Cell, cfgs []flow.Config) ([]core.CellOutcome, error) {
	// The root span of the stitched trace. Started before leases go out
	// (its ID travels in the lease headers) and ended when the build
	// resolves; nil when the coordinator is untraced, which disables the
	// whole propagation path.
	var root *obs.Span
	if c.o.Tracing() {
		root = c.o.Start("fleet.build",
			obs.String("trace", c.traceID), obs.Int("cells", int64(len(cells))))
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		root.End()
		return nil, fmt.Errorf("fleet: coordinator already executed a build")
	}
	c.started = true
	c.root = root
	c.slots = make([]cellSlot, len(cells))
	c.pending = c.pending[:0]
	attempts := c.retry.Attempts()
	for i, cell := range cells {
		keys := make([]string, attempts)
		for k := range keys {
			keys[k] = flow.CacheKey(mods[cell.Module], c.retry.Escalate(cfgs[i], k))
		}
		c.slots[i] = cellSlot{
			cell:  cell,
			keys:  keys,
			state: cellPending,
		}
		c.pending = append(c.pending, i)
	}
	c.remaining = len(cells)
	done := c.buildDone
	if c.remaining == 0 {
		close(done)
	}
	c.mu.Unlock()

	select {
	case <-ctx.Done():
		root.SetError(ctx.Err())
		root.End()
		return nil, ctx.Err()
	case <-done:
	}
	root.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.CellOutcome, len(c.slots))
	for i := range c.slots {
		s := &c.slots[i]
		if s.state == cellDone {
			out[i] = core.CellOutcome{Res: s.res}
		} else {
			out[i] = core.CellOutcome{Err: s.err}
		}
	}
	return out, nil
}

// sweepLocked expires overdue leases, returning their cells to the queue.
// Caller holds mu.
func (c *Coordinator) sweepLocked(now time.Time) {
	for i := range c.slots {
		s := &c.slots[i]
		if s.state == cellLeased && now.After(s.deadline) {
			s.state = cellPending
			c.pending = append(c.pending, i)
			c.cLost.Add(1)
			if l := c.o.Logger(); l != nil {
				l.Warn("fleet lease expired, re-queueing cell",
					"slot", i, "worker", s.worker, "module", s.cell.Module, "run", s.cell.Run)
			}
		}
	}
}

// leaseItem is one claimed cell on the wire.
type leaseItem struct {
	Slot   int    `json:"slot"`
	Module int    `json:"module"`
	Run    int    `json:"run"`
	Key    string `json:"key"`
	Stolen bool   `json:"stolen,omitempty"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

type leaseResponse struct {
	Cells  []leaseItem `json:"cells"`
	Done   bool        `json:"done"`
	WaitMs int         `json:"wait_ms,omitempty"`
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(c.specJSON)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req leaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		http.Error(w, "bad lease request", http.StatusBadRequest)
		return
	}
	max := req.Max
	if max < 1 || max > c.opts.MaxLease {
		max = c.opts.MaxLease
	}
	now := c.opts.Now()
	var resp leaseResponse

	c.mu.Lock()
	if ws := c.workers[req.Worker]; ws == nil {
		c.workers[req.Worker] = &workerStats{
			gauge: c.reg.Gauge(obs.MetricFleetWorkerCellsPrefix + req.Worker + ".cells_done"),
		}
		c.gWorkers.Set(float64(len(c.workers)))
	}
	c.sweepLocked(now)
	for len(resp.Cells) < max && len(c.pending) > 0 {
		i := c.pending[0]
		c.pending = c.pending[1:]
		s := &c.slots[i]
		if s.state != cellPending {
			continue // resolved while queued (duplicate completion won)
		}
		s.state, s.worker = cellLeased, req.Worker
		s.leasedAt, s.deadline = now, now.Add(c.opts.LeaseTTL)
		resp.Cells = append(resp.Cells, leaseItem{
			Slot: i, Module: s.cell.Module, Run: s.cell.Run, Key: s.keys[0],
		})
	}
	if len(resp.Cells) == 0 && c.started && c.remaining > 0 {
		// Nothing queued but the build is unfinished: steal the
		// longest-held in-flight cell once it is old enough. Both workers
		// then race; the first verified completion wins and the loser's
		// lands on the idempotent-duplicate path. The holder itself may
		// re-claim its own stale lease — after a dropped lease response the
		// sole worker of a fleet is the only one who will ever ask, and
		// without self-reclaim it would idle for the full LeaseTTL.
		best := -1
		for i := range c.slots {
			s := &c.slots[i]
			if s.state != cellLeased {
				continue
			}
			if now.Sub(s.leasedAt) < c.opts.StealAfter {
				continue
			}
			if best == -1 || s.leasedAt.Before(c.slots[best].leasedAt) {
				best = i
			}
		}
		if best >= 0 {
			s := &c.slots[best]
			from := s.worker
			s.worker = req.Worker
			s.leasedAt, s.deadline = now, now.Add(c.opts.LeaseTTL)
			stolen := from != req.Worker
			if stolen {
				c.cSteal.Add(1)
			}
			resp.Cells = append(resp.Cells, leaseItem{
				Slot: best, Module: s.cell.Module, Run: s.cell.Run, Key: s.keys[0], Stolen: stolen,
			})
			if l := c.o.Logger(); l != nil {
				if stolen {
					l.Info("fleet cell stolen", "slot", best, "from", from, "to", req.Worker)
				} else {
					l.Info("fleet cell lease renewed by holder", "slot", best, "worker", req.Worker)
				}
			}
		}
	}
	resp.Done = c.started && c.remaining == 0
	if len(resp.Cells) == 0 && !resp.Done {
		resp.WaitMs = 50
	}
	root := c.root
	c.mu.Unlock()

	// Advertise the trace context once the build's root span exists, so
	// workers record and ship spans for the cells they just leased.
	if root != nil {
		obs.TraceContext{TraceID: c.traceID, SpanID: root.SpanID()}.SetHeader(w.Header())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// slotWorker parses the ?slot and ?worker of a completion/failure report.
func (c *Coordinator) slotWorker(w http.ResponseWriter, r *http.Request) (int, string, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return 0, "", false
	}
	var slot int
	if _, err := fmt.Sscanf(r.URL.Query().Get("slot"), "%d", &slot); err != nil {
		http.Error(w, "bad slot", http.StatusBadRequest)
		return 0, "", false
	}
	c.mu.Lock()
	n := len(c.slots)
	c.mu.Unlock()
	if slot < 0 || slot >= n {
		http.Error(w, "slot out of range", http.StatusBadRequest)
		return 0, "", false
	}
	return slot, r.URL.Query().Get("worker"), true
}

type completeResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	slot, worker, ok := c.slotWorker(w, r)
	if !ok {
		return
	}
	// Read one byte past the cap so an oversized payload is detected
	// rather than silently truncated into a payload that fails decode for
	// an unrelated-looking reason.
	const maxCompletion = 64 << 20
	payload, err := io.ReadAll(io.LimitReader(r.Body, maxCompletion+1))
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	if len(payload) > maxCompletion {
		c.cBad.Add(1)
		if l := c.o.Logger(); l != nil {
			l.Warn("fleet rejected oversized completion", "slot", slot, "worker", worker, "cap_bytes", maxCompletion)
		}
		http.Error(w, "completion payload exceeds 64MiB cap", http.StatusRequestEntityTooLarge)
		return
	}
	// Peel off the span batch a tracing worker prefixed to the artifact
	// (X-Cong-Span-Bytes framing) before verification sees the payload.
	spanBlock, payload, ferr := splitSpanBlock(r.Header, payload)
	if ferr != nil {
		http.Error(w, ferr.Error(), http.StatusBadRequest)
		return
	}
	// Verify outside the lock: decode + re-hash is the expensive step, and
	// it needs no queue state beyond the (immutable) key set.
	c.mu.Lock()
	keys := c.slots[slot].keys
	c.mu.Unlock()
	res, derr := store.DecodeResult(payload)
	if derr == nil {
		// Any escalation attempt's key is acceptable: the worker delivers
		// whichever attempt of RunWithRetry first succeeded, and that
		// choice is deterministic (see Execute).
		for _, key := range keys {
			if derr = store.VerifyResultKey(res, key); derr == nil {
				break
			}
		}
	}
	if derr != nil {
		// The payload is not an artifact any of this cell's keys name:
		// reject it and let the lease/steal machinery rerun the cell.
		// Accepting it would silently break byte-identity.
		c.cBad.Add(1)
		if l := c.o.Logger(); l != nil {
			l.Warn("fleet rejected unverified completion", "slot", slot, "worker", worker, "error", derr)
		}
		http.Error(w, "completion failed verification", http.StatusUnprocessableEntity)
		return
	}

	c.mu.Lock()
	s := &c.slots[slot]
	resp := completeResponse{Accepted: true}
	switch s.state {
	case cellDone, cellFailed:
		// Idempotency: this cell is already resolved (stolen copy, retried
		// request whose original landed). Acknowledge so the worker stops
		// retrying, change nothing — the first verified result stays.
		resp.Duplicate = true
		c.cDup.Add(1)
	default:
		s.state, s.res, s.worker = cellDone, res, worker
		c.remaining--
		c.cDone.Add(1)
		if ws := c.workers[worker]; ws != nil {
			ws.done++
			ws.gauge.Set(float64(ws.done))
		}
		if c.remaining == 0 {
			close(c.buildDone)
		}
	}
	root := c.root
	c.mu.Unlock()

	// Stitch the worker's spans under the build span — first verified
	// completion only, so a stolen cell's duplicate doesn't draw the same
	// work twice in the trace. Import takes the tracer's own lock, not the
	// queue's.
	if !resp.Duplicate && len(spanBlock) > 0 && root != nil {
		c.importSpans(worker, spanBlock, root)
	}

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// splitSpanBlock separates an optional span-batch prefix (framed by the
// X-Cong-Span-Bytes header) from the artifact payload. A malformed length
// is a protocol error; a block past the batch cap is dropped — the
// artifact is still processed, a trace lane is not worth a rebuild.
func splitSpanBlock(h http.Header, body []byte) (spans, artifact []byte, err error) {
	v := h.Get(obs.HeaderSpanBytes)
	if v == "" {
		return nil, body, nil
	}
	n, perr := strconv.Atoi(v)
	if perr != nil || n < 0 || n > len(body) {
		return nil, nil, fmt.Errorf("bad span block length %q", v)
	}
	if n > obs.MaxSpanBatchBytes {
		return nil, body[n:], nil
	}
	return body[:n], body[n:], nil
}

// importSpans decodes one worker's span batch and splices it into the
// coordinator's tracer. Best-effort by design: a batch that fails to
// decode, or that belongs to another trace (a worker that wandered in
// from a previous build), is logged and dropped.
func (c *Coordinator) importSpans(worker string, block []byte, root *obs.Span) {
	if c.o == nil || c.o.Trace == nil {
		return
	}
	batch, spans, err := obs.DecodeSpanBatch(block)
	if err != nil || batch.TraceID != c.traceID {
		if l := c.o.Logger(); l != nil {
			l.Warn("fleet dropped span batch", "worker", worker, "trace", batch.TraceID, "error", err)
		}
		return
	}
	// Shift the worker's epoch-relative offsets into the coordinator's
	// timebase via the wall-clock epoch delta (same-host clocks; Import
	// clamps at zero if skew pushes a span before the local epoch).
	var shift time.Duration
	if epoch, ok := c.o.Trace.EpochWall(); ok {
		shift = time.Unix(0, batch.EpochUnixNs).Sub(epoch)
	}
	proc := batch.Proc
	if proc == "" {
		proc = worker
	}
	c.o.Trace.Import(spans, proc, root, shift)
}

type failRequest struct {
	Error string `json:"error"`
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	slot, worker, ok := c.slotWorker(w, r)
	if !ok {
		return
	}
	var req failRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad failure report", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	s := &c.slots[slot]
	dup := s.state == cellDone || s.state == cellFailed
	if !dup {
		// The worker already retried per the build's RetryPolicy; the
		// error is terminal for this cell, exactly as in a local build.
		s.state, s.err, s.worker = cellFailed, errors.New(req.Error), worker
		c.remaining--
		c.cFailed.Add(1)
		if c.remaining == 0 {
			close(c.buildDone)
		}
	} else {
		c.cDup.Add(1)
	}
	c.mu.Unlock()
	if l := c.o.Logger(); l != nil && !dup {
		l.Warn("fleet cell failed", "slot", slot, "worker", worker, "error", req.Error)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(completeResponse{Accepted: true, Duplicate: dup})
}

// Status is the coordinator's progress snapshot.
type Status struct {
	Cells     int            `json:"cells"`
	Done      int            `json:"done"`
	Failed    int            `json:"failed"`
	Leased    int            `json:"leased"`
	Pending   int            `json:"pending"`
	Steals    int64          `json:"steals"`
	Lost      int64          `json:"worker_lost"`
	Dups      int64          `json:"dup_completions"`
	Bad       int64          `json:"bad_completions"`
	Workers   map[string]int `json:"workers"`
	BuildDone bool           `json:"build_done"`
}

// StatusSnapshot returns the current progress counters.
func (c *Coordinator) StatusSnapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Cells:   len(c.slots),
		Steals:  c.cSteal.Value(),
		Lost:    c.cLost.Value(),
		Dups:    c.cDup.Value(),
		Bad:     c.cBad.Value(),
		Workers: make(map[string]int, len(c.workers)),
	}
	for i := range c.slots {
		switch c.slots[i].state {
		case cellDone:
			st.Done++
		case cellFailed:
			st.Failed++
		case cellLeased:
			st.Leased++
		case cellPending:
			st.Pending++
		}
	}
	for name, ws := range c.workers {
		st.Workers[name] = int(ws.done)
	}
	st.BuildDone = c.started && c.remaining == 0
	return st
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.StatusSnapshot())
}

var _ core.CellExecutor = (*Coordinator)(nil).Execute
