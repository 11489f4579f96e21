package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
)

// job carries one decoded /predict request through a shard's coalescer:
// the pooled feature matrix going in, the pooled result slices coming
// back, and a one-slot completion channel. Jobs live in a sync.Pool with
// all their buffers, so a warmed server admits, scores and answers
// requests without allocating.
type job struct {
	// m holds the decoded feature rows; rows are views into m's flat
	// backing array, regenerated after each decode.
	m    ml.Matrix
	rows [][]float64
	// vert, horiz and avg are the per-row results, each m.Rows long. The
	// batcher scatters the coalesced outputs into them so the handler can
	// encode its response after the batch buffers have moved on.
	vert, horiz, avg []float64
	// shard is the affinity hint: the shard index this job was last
	// admitted on (modulo the server's shard count — the pool is shared
	// across servers). sync.Pool is per-P, so a core keeps drawing the
	// same jobs and the hint routes its requests back to the same shard —
	// same batcher goroutine, same warm buffers — without any shared
	// routing state, as long as that shard is idle or every shard is busy
	// (see Server.admit). New jobs start on round-robin shards so cold
	// bursts spread out.
	shard int32
	// err is the batch outcome for this job (nil on success).
	err error
	// done receives exactly one value when the batcher has filled the
	// outputs (or err). Buffered so the batcher never blocks on a slow
	// handler.
	done chan struct{}
}

var jobShardRR atomic.Uint32

var jobPool = sync.Pool{New: func() any {
	return &job{done: make(chan struct{}, 1), shard: int32(jobShardRR.Add(1))}
}}

func getJob() *job { return jobPool.Get().(*job) }

func putJob(j *job) {
	j.err = nil
	jobPool.Put(j)
}

// sizeOutputs resizes the result slices to the decoded row count, growing
// only when a previous use was smaller.
func (j *job) sizeOutputs() {
	n := j.m.Rows
	j.vert = growFloats(j.vert, n)
	j.horiz = growFloats(j.horiz, n)
	j.avg = growFloats(j.avg, n)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// batchLoop is the coalescing heart of one shard: it drains the shard's
// submit channel, groups pending jobs into micro-batches and scores each
// batch with one PredictBatchInto call. A batch closes when its row count
// reaches Options.MaxBatch, when every request admitted on this shard is
// already in it (see allQueued), or when Options.Window has elapsed since
// its first job — the window bounds the latency a lone request pays for
// the chance to share a batch, the cap bounds how much work one call
// hoards. All scratch (pending slice, gathered row views, batch outputs,
// the window timer) is owned by this shard and reused across batches, so
// the loop itself never allocates in steady state and never touches
// another shard's memory.
func (sh *shard) batchLoop() {
	defer close(sh.done)
	var (
		pending          = make([]*job, 0, 64)
		rows             [][]float64
		vert, horiz, avg []float64
	)
	opts := sh.srv.opts
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	open := true
	for open {
		j, ok := <-sh.submit
		if !ok {
			return
		}
		pending = append(pending[:0], j)
		n := j.m.Rows
		if n < opts.MaxBatch && !sh.allQueued(len(pending)) {
			if opts.Window > 0 {
				// Windowed collection: wait up to Window for companions.
				timer.Reset(opts.Window)
				fired := false
			collect:
				for n < opts.MaxBatch {
					select {
					case j2, ok2 := <-sh.submit:
						if !ok2 {
							open = false
							break collect
						}
						pending = append(pending, j2)
						n += j2.m.Rows
						if sh.allQueued(len(pending)) {
							break collect
						}
					case <-timer.C:
						fired = true
						break collect
					}
				}
				if !fired && !timer.Stop() {
					<-timer.C
				}
			} else {
				// No window: greedily take whatever is already queued.
			greedy:
				for n < opts.MaxBatch {
					select {
					case j2, ok2 := <-sh.submit:
						if !ok2 {
							open = false
							break greedy
						}
						pending = append(pending, j2)
						n += j2.m.Rows
					default:
						break greedy
					}
				}
			}
		}
		rows, vert, horiz, avg = sh.flush(pending, rows, vert, horiz, avg)
	}
}

// allQueued reports whether every request admitted on this shard is
// already in the batch. Each in-flight request holds exactly one slot of
// the shard it submitted to, from before it submits until after its
// response is encoded, so len(sh.sem) bounds the jobs that could still
// join this shard's batch; once pending matches it the submit queue is
// provably dry and waiting out the window is pure added latency. Splitting
// MaxInflight into per-shard semaphores is what keeps this proof local:
// requests on other shards hold other semaphores and can never land here.
// The read races with new admissions, but only conservatively — an
// overcount just means the batcher keeps waiting and the window still
// bounds the wait. This is what keeps closed-loop p99 near the predict
// time instead of near the timer's firing slop.
func (sh *shard) allQueued(pending int) bool { return pending >= len(sh.sem) }

// flush scores one coalesced batch and wakes every waiting job. The
// single-job case predicts straight into the job's own output slices; a
// multi-job batch gathers the row views, predicts once into the shard's
// batch outputs, and scatters each job's segment back. The model pointer
// is loaded exactly once per flush, so every row of a batch — whatever
// requests it coalesced — is scored by one generation. The scratch slices
// are threaded through and returned so the loop reuses their capacity.
func (sh *shard) flush(pending []*job, rows [][]float64, vert, horiz, avg []float64) ([][]float64, []float64, []float64, []float64) {
	total := 0
	for _, j := range pending {
		total += j.m.Rows
	}
	met := &sh.srv.met
	met.batches.Inc()
	met.batchRows.Observe(float64(total))
	met.occupancy.Set(float64(total) / float64(sh.srv.opts.MaxBatch))
	mdl := sh.srv.models.Load()
	if mdl == nil {
		for _, j := range pending {
			j.err = ErrNoModel
			j.done <- struct{}{}
		}
		return rows, vert, horiz, avg
	}
	if len(pending) == 1 {
		j := pending[0]
		j.err = predictGuarded(mdl.Pred, j.vert, j.horiz, j.avg, j.rows)
		if j.err == nil {
			met.predictions.Add(int64(total))
		}
		j.done <- struct{}{}
		return rows, vert, horiz, avg
	}
	rows = rows[:0]
	for _, j := range pending {
		rows = append(rows, j.rows...)
	}
	vert = growFloats(vert, total)
	horiz = growFloats(horiz, total)
	avg = growFloats(avg, total)
	// Admission already checked each job's width against the model, so a
	// shape error here means the model was swapped for one with a
	// different layout mid-flight; the whole batch reports it.
	err := predictGuarded(mdl.Pred, vert, horiz, avg, rows)
	off := 0
	for _, j := range pending {
		n := j.m.Rows
		if err != nil {
			j.err = err
		} else {
			copy(j.vert, vert[off:off+n])
			copy(j.horiz, horiz[off:off+n])
			copy(j.avg, avg[off:off+n])
		}
		off += n
		j.done <- struct{}{}
	}
	if err == nil {
		met.predictions.Add(int64(total))
	}
	return rows, vert, horiz, avg
}

// predictGuarded firewalls the batcher goroutine against model-internal
// panics: the server scores untrusted input around hot-swapped artifacts,
// and a panic escaping the loop would take the whole service down.
func predictGuarded(p *core.Predictor, vert, horiz, avg []float64, rows [][]float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: predict panicked: %v", r)
		}
	}()
	return p.PredictBatchInto(vert, horiz, avg, rows)
}
