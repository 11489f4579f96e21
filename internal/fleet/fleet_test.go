package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/store"
)

// fleetModules builds two small real designs (mirroring core's test
// corpus): fleet builds must round-trip genuine flow artifacts.
func fleetModules() []*ir.Module {
	build := func(name string, lanes, width int) *ir.Module {
		m := ir.NewModule(name)
		b := ir.NewBuilder(m.NewFunction(name+"_top")).At(name+".cpp", 1)
		p := b.Port("p", 32)
		a := b.Array("mem", 64, 16, 8)
		var outs []*ir.Op
		for i := 0; i < lanes; i++ {
			b.Line(10 + i)
			v := b.Load(a, nil)
			x := b.OpBits(ir.KindBitSel, width, p, width)
			outs = append(outs, b.Op(ir.KindMul, 16, v, x))
		}
		b.Line(60)
		b.Ret(b.ReduceTree(ir.KindAdd, 16, outs))
		return m
	}
	return []*ir.Module{build("fleet_a", 12, 16), build("fleet_b", 20, 8)}
}

func fleetFlow() flow.Config {
	cfg := flow.DefaultConfig()
	cfg.Place.Moves = 2000
	return cfg
}

func fleetOpts() core.BuildOptions {
	return core.BuildOptions{
		LabelRuns: 2,
		Retry:     flow.RetryPolicy{MaxAttempts: 2, SeedStride: 104729},
	}
}

// runFleetBuild assembles a full in-process fleet — coordinator over real
// HTTP (httptest), n workers with the given fault scripts — and runs one
// distributed build, returning the canonical dataset bytes. Workers are
// named "A", "B", ... unless explicit names are given.
func runFleetBuild(t *testing.T, n int, scripts []*faults.NetScript, copts CoordinatorOptions, names ...string) ([]byte, *Coordinator, *core.BuildSummary) {
	t.Helper()
	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, copts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	addr := srv.Listener.Addr().String()

	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < n; i++ {
		var script *faults.NetScript
		if i < len(scripts) {
			script = scripts[i]
		}
		name := string(rune('A' + i))
		if i < len(names) {
			name = names[i]
		}
		w, err := Join(NewClient(addr, script), WorkerOptions{
			Name:         name,
			RetryBackoff: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	ds, _, sum, buildErr := core.BuildDatasetExec(ctx, mods, cfg, opts, coord.Execute)
	if buildErr != nil {
		t.Fatalf("fleet build failed: %v", buildErr)
	}
	cancel() // release workers blocked on empty-queue waits
	wg.Wait()
	return store.EncodeDataset(ds), coord, sum
}

// sequentialBytes is the reference: the same build through the local
// sequential path.
func sequentialBytes(t *testing.T) []byte {
	t.Helper()
	opts := fleetOpts()
	opts.Workers = 1
	ds, _, _, err := core.BuildDatasetContext(context.Background(), fleetModules(), fleetFlow(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return store.EncodeDataset(ds)
}

// TestSpecRoundTripPreservesKeys pins the wire contract everything else
// rests on: a spec that crosses JSON and IR-text serialization yields the
// exact flow.CacheKeys of the original inputs, for every cell of the grid.
func TestSpecRoundTripPreservesKeys(t *testing.T) {
	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSpec(wire)
	if err != nil {
		t.Fatal(err)
	}
	rmods, rcfg, rretry, err := decoded.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(rmods) != len(mods) {
		t.Fatalf("round-trip kept %d modules, want %d", len(rmods), len(mods))
	}
	if rretry.MaxAttempts != opts.Retry.MaxAttempts || rretry.SeedStride != opts.Retry.SeedStride ||
		rretry.RouteIterStep != opts.Retry.RouteIterStep || rretry.CapacityRelax != opts.Retry.CapacityRelax ||
		rretry.Backoff != opts.Retry.Backoff {
		t.Fatalf("retry policy round-trip: %+v, want %+v", rretry, opts.Retry)
	}
	for mi := range mods {
		for run := 0; run < opts.LabelRuns; run++ {
			want := flow.CacheKey(mods[mi], core.CellConfig(cfg, run))
			got := flow.CacheKey(rmods[mi], core.CellConfig(rcfg, run))
			if got != want {
				t.Fatalf("module %d run %d: round-tripped key %s, want %s", mi, run, got[:12], want[:12])
			}
		}
	}
}

// TestNewBuildSpecRejectsNonSerializable pins the refusal paths: fault
// injectors and custom retry predicates cannot cross the wire.
func TestNewBuildSpecRejectsNonSerializable(t *testing.T) {
	mods := fleetModules()
	cfg := fleetFlow()
	cfg.Faults = faults.ForDesign("x", faults.FailFirst(flow.StagePlace, 0, flow.ErrTimedOut))
	if _, err := NewBuildSpec(mods, cfg, 1, flow.RetryPolicy{}); err == nil {
		t.Fatal("spec accepted a fault injector")
	}
	if _, err := NewBuildSpec(mods, fleetFlow(), 1, flow.RetryPolicy{Retryable: func(error) bool { return true }}); err == nil {
		t.Fatal("spec accepted a Retryable predicate")
	}
}

// TestFleetBuildMatchesSequential is the tentpole's acceptance test: a
// build sharded over two workers on real HTTP is byte-identical to the
// sequential local build.
func TestFleetBuildMatchesSequential(t *testing.T) {
	want := sequentialBytes(t)
	got, coord, sum := runFleetBuild(t, 2, nil, CoordinatorOptions{})
	if !bytes.Equal(got, want) {
		t.Fatal("fleet-built dataset differs from sequential build")
	}
	if sum.Succeeded != 2 {
		t.Fatalf("summary: %+v, want 2 modules succeeded", sum)
	}
	st := coord.StatusSnapshot()
	if st.Done != 4 || !st.BuildDone {
		t.Fatalf("status: %+v, want 4 cells done", st)
	}
	total := 0
	for _, n := range st.Workers {
		total += n
	}
	if total != 4 || len(st.Workers) != 2 {
		t.Fatalf("per-worker accounting: %+v, want 4 cells across 2 workers", st.Workers)
	}
}

// TestFleetSurvivesTransportFaults drops responses and duplicates
// completions on the wire: the dropped-response retries land on the
// idempotent-duplicate path, and the artifact stays byte-identical.
func TestFleetSurvivesTransportFaults(t *testing.T) {
	want := sequentialBytes(t)
	script := faults.NewNetScript(map[faults.NetKey]faults.NetFault{
		{Op: NetOpComplete, N: 0}: faults.NetDropResponse,
		{Op: NetOpComplete, N: 2}: faults.NetDuplicate,
		{Op: NetOpLease, N: 1}:    faults.NetDropRequest,
	})
	got, coord, _ := runFleetBuild(t, 1, []*faults.NetScript{script}, CoordinatorOptions{})
	if !bytes.Equal(got, want) {
		t.Fatal("fleet build under transport faults differs from sequential build")
	}
	st := coord.StatusSnapshot()
	if st.Dups == 0 {
		t.Fatalf("status %+v: dropped/duplicated completions never hit the idempotency path", st)
	}
	if st.Done != 4 {
		t.Fatalf("status %+v, want 4 cells done", st)
	}
}

// TestLeaseExpiryRequeues kills a worker silently (it leases a cell and
// never reports) and proves the lease expires, the cell re-queues, and a
// live worker finishes the build correctly.
func TestLeaseExpiryRequeues(t *testing.T) {
	var clock atomic.Int64
	base := time.Now()
	clock.Store(0)
	now := func() time.Time { return base.Add(time.Duration(clock.Load())) }

	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{
		LeaseTTL:   time.Minute,
		StealAfter: 30 * time.Second,
		Now:        now,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	addr := srv.Listener.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buildDone := make(chan struct{})
	var dsBytes []byte
	go func() {
		defer close(buildDone)
		ds, _, _, err := core.BuildDatasetExec(ctx, mods, cfg, opts, coord.Execute)
		if err == nil {
			dsBytes = store.EncodeDataset(ds)
		}
	}()

	// The doomed worker leases one cell and vanishes without reporting.
	doomed := NewClient(addr, nil)
	var doomedLease *leaseResponse
	for i := 0; i < 100; i++ {
		doomedLease, err = doomed.Lease("doomed", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(doomedLease.Cells) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(doomedLease.Cells) == 0 {
		t.Fatal("doomed worker never got a lease")
	}

	// Expire its lease, then let a live worker drain everything.
	clock.Store(int64(2 * time.Minute))
	w, err := Join(NewClient(addr, nil), WorkerOptions{Name: "live", RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	<-buildDone
	if dsBytes == nil {
		t.Fatal("fleet build failed after worker loss")
	}
	if want := sequentialBytes(t); !bytes.Equal(dsBytes, want) {
		t.Fatal("dataset after lease expiry differs from sequential build")
	}
	st := coord.StatusSnapshot()
	if st.Lost == 0 {
		t.Fatalf("status %+v: lease expiry never counted a lost worker", st)
	}
}

// TestStealRunsInFlightCell pins work stealing: with every cell leased to
// a stalled worker and the steal age reached, an idle worker re-leases an
// in-flight cell instead of idling, and the duplicate completion (if the
// stalled worker ever reports) is absorbed.
func TestStealRunsInFlightCell(t *testing.T) {
	var clock atomic.Int64
	base := time.Now()
	now := func() time.Time { return base.Add(time.Duration(clock.Load())) }

	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	opts.LabelRuns = 1 // 2 cells: easy to pin both in the stalled worker
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{
		LeaseTTL:   time.Hour, // expiry out of the picture: only stealing can save this build
		StealAfter: time.Minute,
		Now:        now,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	addr := srv.Listener.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buildDone := make(chan struct{})
	var dsBytes []byte
	go func() {
		defer close(buildDone)
		ds, _, _, err := core.BuildDatasetExec(ctx, mods, cfg, opts, coord.Execute)
		if err == nil {
			dsBytes = store.EncodeDataset(ds)
		}
	}()

	// The stalled worker grabs both cells and sits on them.
	stalled := NewClient(addr, nil)
	grabbed := 0
	for i := 0; i < 200 && grabbed < 2; i++ {
		lease, err := stalled.Lease("stalled", 1)
		if err != nil {
			t.Fatal(err)
		}
		grabbed += len(lease.Cells)
		if len(lease.Cells) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if grabbed != 2 {
		t.Fatalf("stalled worker leased %d cells, want 2", grabbed)
	}

	// Past the steal age an idle worker takes over the in-flight cells.
	clock.Store(int64(2 * time.Minute))
	w, err := Join(NewClient(addr, nil), WorkerOptions{Name: "thief", RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	<-buildDone
	if dsBytes == nil {
		t.Fatal("fleet build failed despite stealing")
	}
	st := coord.StatusSnapshot()
	if st.Steals < 2 {
		t.Fatalf("status %+v: want ≥2 steals", st)
	}
	if st.Done != 2 || st.Workers["thief"] != 2 {
		t.Fatalf("status %+v: thief should have completed both cells", st)
	}
}

// TestRejectsUnverifiedCompletion posts a forged payload for a leased
// cell: the coordinator must 422 it, count it, and let the build finish
// with the real artifact.
func TestRejectsUnverifiedCompletion(t *testing.T) {
	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{StealAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	addr := srv.Listener.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buildDone := make(chan struct{})
	var dsBytes []byte
	go func() {
		defer close(buildDone)
		ds, _, _, err := core.BuildDatasetExec(ctx, mods, cfg, opts, coord.Execute)
		if err == nil {
			dsBytes = store.EncodeDataset(ds)
		}
	}()

	// Forge a completion: lease a cell, post garbage for it.
	forger := NewClient(addr, nil)
	var lease *leaseResponse
	for i := 0; i < 100; i++ {
		lease, err = forger.Lease("forger", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Cells) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(lease.Cells) == 0 {
		t.Fatal("forger never got a lease")
	}
	if _, err := forger.Complete(lease.Cells[0].Slot, "forger", []byte("not an artifact"), nil); err == nil {
		t.Fatal("forged completion was accepted")
	}

	// An honest worker (stealing the forged cell quickly) finishes the
	// build with the genuine artifact.
	w, err := Join(NewClient(addr, nil), WorkerOptions{Name: "honest", RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	<-buildDone
	if dsBytes == nil {
		t.Fatal("build failed after forged completion")
	}
	if want := sequentialBytes(t); !bytes.Equal(dsBytes, want) {
		t.Fatal("dataset after forged completion differs from sequential build")
	}
	if st := coord.StatusSnapshot(); st.Bad == 0 {
		t.Fatalf("status %+v: forged completion was not counted", st)
	}
}

// TestFleetObserverCounters wires an Observer through a clean 2-worker
// build and checks the fleet.* metrics land.
func TestFleetObserverCounters(t *testing.T) {
	o := obs.New()
	_, coord, _ := runFleetBuild(t, 2, nil, CoordinatorOptions{Obs: o})
	if got := o.Metrics().Counter(obs.MetricFleetCellsDone).Value(); got != 4 {
		t.Fatalf("fleet.cells_done = %d, want 4", got)
	}
	if got := o.Metrics().Gauge(obs.MetricFleetWorkers).Value(); got != 2 {
		t.Fatalf("fleet.workers = %v, want 2", got)
	}
	st := coord.StatusSnapshot()
	perWorker := 0.0
	for name := range st.Workers {
		perWorker += o.Metrics().Gauge(obs.MetricFleetWorkerCellsPrefix + name + ".cells_done").Value()
	}
	if perWorker != 4 {
		t.Fatalf("per-worker gauges sum to %v, want 4", perWorker)
	}
}

// TestFleetAcceptsRetriedCompletion is the regression for the
// retried-success livelock: a cell that fails its first flow attempt and
// succeeds on a retry delivers an artifact keyed by the *escalated*
// config (re-rolled seed), not the base one. The coordinator used to
// verify against the attempt-0 key only, so such a completion was 422'd,
// the cell re-leased, and the identical rejection repeated forever. It
// must be accepted, and the dataset must match the sequential build
// under the same injected faults.
func TestFleetAcceptsRetriedCompletion(t *testing.T) {
	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	inject := faults.ForDesign(mods[0].Name, faults.FailFirst(flow.StageRoute, 1, flow.ErrUnroutable))

	// Sequential reference under the same per-attempt faults.
	seqCfg := cfg
	seqCfg.Faults = inject
	seqOpts := opts
	seqOpts.Workers = 1
	seqDS, _, seqSum, err := core.BuildDatasetContext(context.Background(), mods, seqCfg, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if seqSum.Succeeded != 2 {
		t.Fatalf("sequential reference: %+v, want both modules to succeed via retry", seqSum)
	}
	want := store.EncodeDataset(seqDS)

	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := Join(NewClient(srv.Listener.Addr().String(), nil),
		WorkerOptions{Name: "retrier", RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Fault injectors don't cross the wire (NewBuildSpec rejects them);
	// plant the same injector directly in the joined worker, as a faulty
	// environment would.
	w.cfg.Faults = inject
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
	ds, _, sum, err := core.BuildDatasetExec(ctx, mods, cfg, opts, coord.Execute)
	if err != nil {
		t.Fatalf("fleet build with retried cells failed: %v", err)
	}
	cancel()
	wg.Wait()
	if !bytes.Equal(store.EncodeDataset(ds), want) {
		t.Fatal("fleet build with retried cells differs from sequential build")
	}
	if sum.Succeeded != 2 {
		t.Fatalf("summary: %+v, want 2 modules succeeded", sum)
	}
	st := coord.StatusSnapshot()
	if st.Bad != 0 {
		t.Fatalf("status %+v: retried completions were rejected as unverified", st)
	}
	if st.Done != 4 {
		t.Fatalf("status %+v, want 4 cells done", st)
	}
}

// TestSelfReclaimAfterDroppedLease pins the single-worker recovery path:
// when a lease response is lost on the wire, the holder itself is the
// only worker who will ever ask again — the steal scan must hand its own
// stale cell back at StealAfter instead of stalling until the full
// LeaseTTL.
func TestSelfReclaimAfterDroppedLease(t *testing.T) {
	var clock atomic.Int64
	base := time.Now()
	now := func() time.Time { return base.Add(time.Duration(clock.Load())) }

	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	opts.LabelRuns = 1 // 2 cells
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{
		LeaseTTL:   time.Hour, // expiry out of the picture: only self-reclaim can save this build
		StealAfter: time.Minute,
		Now:        now,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	addr := srv.Listener.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buildDone := make(chan struct{})
	var dsBytes []byte
	go func() {
		defer close(buildDone)
		ds, _, _, err := core.BuildDatasetExec(ctx, mods, cfg, opts, coord.Execute)
		if err == nil {
			dsBytes = store.EncodeDataset(ds)
		}
	}()

	// Both lease responses are "dropped": the worker claims the cells but
	// never learns it holds them.
	solo := NewClient(addr, nil)
	grabbed := 0
	for i := 0; i < 200 && grabbed < 2; i++ {
		lease, err := solo.Lease("solo", 1)
		if err != nil {
			t.Fatal(err)
		}
		grabbed += len(lease.Cells)
		if len(lease.Cells) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if grabbed != 2 {
		t.Fatalf("solo worker leased %d cells, want 2", grabbed)
	}

	// Before the steal age nothing comes back, own lease or not.
	if resp, err := solo.Lease("solo", 1); err != nil {
		t.Fatal(err)
	} else if len(resp.Cells) != 0 {
		t.Fatalf("own cell handed back before StealAfter: %+v", resp.Cells)
	}

	// Past the steal age the same worker re-claims its own cells and
	// finishes the build alone.
	clock.Store(int64(2 * time.Minute))
	w, err := Join(NewClient(addr, nil), WorkerOptions{Name: "solo", RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	<-buildDone
	if dsBytes == nil {
		t.Fatal("single-worker fleet never recovered its dropped leases")
	}
	st := coord.StatusSnapshot()
	if st.Steals != 0 {
		t.Fatalf("status %+v: self-reclaim must not count as a steal", st)
	}
	if st.Done != 2 || st.Workers["solo"] != 2 {
		t.Fatalf("status %+v: solo worker should have completed both cells", st)
	}
}

// TestWorkerNameSurvivesURLEncoding runs a full build under a worker name
// made of query-string metacharacters: reports must land under that exact
// name instead of corrupting the request URL.
func TestWorkerNameSurvivesURLEncoding(t *testing.T) {
	const nasty = "w&eird=name #1"
	want := sequentialBytes(t)
	got, coord, sum := runFleetBuild(t, 1, nil, CoordinatorOptions{}, nasty)
	if !bytes.Equal(got, want) {
		t.Fatal("fleet build under a metacharacter worker name differs from sequential build")
	}
	if sum.Succeeded != 2 {
		t.Fatalf("summary: %+v, want 2 modules succeeded", sum)
	}
	st := coord.StatusSnapshot()
	if st.Workers[nasty] != 4 {
		t.Fatalf("per-worker accounting %+v: want 4 cells under %q", st.Workers, nasty)
	}
}

// TestOversizedCompletionRejectedDistinctly posts a payload one byte over
// the 64MiB completion cap: the coordinator must answer 413 — not
// silently truncate the body into an undiagnosable 422 decode failure —
// and the build must still finish with the genuine artifact.
func TestOversizedCompletionRejectedDistinctly(t *testing.T) {
	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{StealAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	addr := srv.Listener.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buildDone := make(chan struct{})
	var dsBytes []byte
	go func() {
		defer close(buildDone)
		ds, _, _, err := core.BuildDatasetExec(ctx, mods, cfg, opts, coord.Execute)
		if err == nil {
			dsBytes = store.EncodeDataset(ds)
		}
	}()

	bloat := NewClient(addr, nil)
	var lease *leaseResponse
	for i := 0; i < 100; i++ {
		lease, err = bloat.Lease("bloat", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Cells) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(lease.Cells) == 0 {
		t.Fatal("bloat worker never got a lease")
	}
	_, cerr := bloat.Complete(lease.Cells[0].Slot, "bloat", make([]byte, 64<<20+1), nil)
	if cerr == nil || !strings.Contains(cerr.Error(), "413") {
		t.Fatalf("oversized completion error = %v, want HTTP 413", cerr)
	}

	w, err := Join(NewClient(addr, nil), WorkerOptions{Name: "honest", RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	<-buildDone
	if dsBytes == nil {
		t.Fatal("build failed after oversized completion")
	}
	if st := coord.StatusSnapshot(); st.Bad == 0 {
		t.Fatalf("status %+v: oversized completion was not counted", st)
	}
}

// TestDefectiveWorkerWithdrawsWithoutFailingCells corrupts one worker's
// materialized spec: its Run must return the defect (withdrawing from the
// fleet) rather than reporting Fail — which would terminally poison cells
// healthy workers can complete — and a healthy worker must then finish
// the build byte-identically.
func TestDefectiveWorkerWithdrawsWithoutFailingCells(t *testing.T) {
	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{StealAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	addr := srv.Listener.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buildDone := make(chan struct{})
	var dsBytes []byte
	go func() {
		defer close(buildDone)
		ds, _, _, err := core.BuildDatasetExec(ctx, mods, cfg, opts, coord.Execute)
		if err == nil {
			dsBytes = store.EncodeDataset(ds)
		}
	}()

	bad, err := Join(NewClient(addr, nil), WorkerOptions{Name: "bad", RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	bad.cfg.Seed += 13 // skewed spec: every derived key now disagrees with the coordinator's
	if _, err := bad.Run(ctx); err == nil || !strings.Contains(err.Error(), "stale spec") {
		t.Fatalf("defective worker Run = %v, want stale-spec withdrawal", err)
	}
	// The other worker-local defect, a module index this worker doesn't
	// have, withdraws the same way.
	if _, err := bad.runCell(ctx, leaseItem{Slot: 0, Module: 99}); err == nil {
		t.Fatal("out-of-range module index did not withdraw the worker")
	}

	good, err := Join(NewClient(addr, nil), WorkerOptions{Name: "good", RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Run(ctx); err != nil {
		t.Fatal(err)
	}
	<-buildDone
	if dsBytes == nil {
		t.Fatal("build failed after a defective worker withdrew")
	}
	if want := sequentialBytes(t); !bytes.Equal(dsBytes, want) {
		t.Fatal("dataset after defective-worker withdrawal differs from sequential build")
	}
	st := coord.StatusSnapshot()
	if st.Failed != 0 {
		t.Fatalf("status %+v: a defective worker terminally failed a cell", st)
	}
	if st.Done != 4 {
		t.Fatalf("status %+v, want 4 cells done", st)
	}
}

// TestWorkerCancelledMidBuild cancels a worker's context and checks Run
// returns promptly with the context error (the coordinator side is
// covered by the expiry test).
func TestWorkerCancelledMidBuild(t *testing.T) {
	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	w, err := Join(NewClient(srv.Listener.Addr().String(), nil), WorkerOptions{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Run(ctx); err != context.Canceled {
		t.Fatalf("cancelled Run = %v, want context.Canceled", err)
	}
}

// A traced coordinator stitches worker spans into one trace: every
// imported span carries a worker lane, parents resolve to the fleet.build
// root, and the shifted times land inside the build span.
func TestFleetStitchedTrace(t *testing.T) {
	o := obs.New()
	_, _, _ = runFleetBuild(t, 2, nil, CoordinatorOptions{Obs: o}, "wA", "wB")
	spans := o.Trace.Spans()

	var build *obs.SpanData
	ids := make(map[int64]bool, len(spans))
	for i := range spans {
		ids[spans[i].ID] = true
		if spans[i].Name == "fleet.build" {
			if build != nil {
				t.Fatal("more than one fleet.build root span")
			}
			build = &spans[i]
		}
	}
	if build == nil {
		t.Fatal("no fleet.build root span")
	}
	if build.Proc != "" {
		t.Errorf("root span is on lane %q, want the local lane", build.Proc)
	}

	lanes := make(map[string]int)
	flows := 0
	for _, s := range spans {
		if s.Proc == "" {
			continue
		}
		lanes[s.Proc]++
		if s.Name == "flow" {
			flows++
		}
		if s.ParentID == 0 {
			t.Errorf("imported span %q has no parent", s.Name)
		} else if !ids[s.ParentID] {
			t.Errorf("imported span %q parented on unknown ID %d", s.Name, s.ParentID)
		}
		const slack = 500 * time.Millisecond
		if s.Start < build.Start-slack || s.End > build.End+slack {
			t.Errorf("imported span %q [%v, %v] outside build span [%v, %v]",
				s.Name, s.Start, s.End, build.Start, build.End)
		}
		if s.Proc != "wA" && s.Proc != "wB" {
			t.Errorf("unexpected lane %q", s.Proc)
		}
	}
	if len(lanes) == 0 {
		t.Fatal("no worker lanes in the stitched trace")
	}
	// 4 cells ran; every one must have shipped a flow span from some lane.
	if flows != 4 {
		t.Errorf("stitched trace has %d flow spans, want 4 (one per cell)", flows)
	}

	// The rendered Chrome trace: one named pid per worker lane, the
	// fleet.build root alone on the local pid 1, and time moving forward
	// along every (pid, tid) track.
	var buf bytes.Buffer
	if err := o.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v", err)
	}
	named := make(map[string]bool)
	roots := 0
	lastTS := make(map[[2]int]float64)
	for _, ev := range tf.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name != "process_name" {
				continue
			}
			name, _ := ev.Args["name"].(string)
			if ev.PID == 1 {
				t.Errorf("local pid 1 carries process_name %q", name)
			}
			if named[name] {
				t.Errorf("lane %q named twice", name)
			}
			named[name] = true
		case "X":
			if ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("event %q has negative ts %v or dur %v", ev.Name, ev.TS, ev.Dur)
			}
			if ev.Name == "fleet.build" {
				roots++
				if ev.PID != 1 {
					t.Errorf("fleet.build rendered on pid %d, want the local pid 1", ev.PID)
				}
			}
			track := [2]int{ev.PID, ev.TID}
			if ev.TS < lastTS[track] {
				t.Errorf("track pid %d tid %d goes backwards in time at %q", ev.PID, ev.TID, ev.Name)
			}
			lastTS[track] = ev.TS
		}
	}
	if roots != 1 {
		t.Errorf("rendered trace has %d fleet.build roots, want 1", roots)
	}
	if len(named) != len(lanes) {
		t.Errorf("%d process_name records for %d worker lanes", len(named), len(lanes))
	}
	for lane := range lanes {
		if !named[lane] {
			t.Errorf("worker lane %q has no process_name record", lane)
		}
	}
}

// An untraced coordinator advertises no trace context, and workers ship
// no spans — the propagation path stays completely dark.
func TestFleetUntracedShipsNothing(t *testing.T) {
	mods := fleetModules()
	cfg := fleetFlow()
	opts := fleetOpts()
	spec, err := NewBuildSpec(mods, cfg, opts.LabelRuns, opts.Retry)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := NewClient(srv.Listener.Addr().String(), nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := Join(client, WorkerOptions{Name: "solo", RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	if _, _, _, err := core.BuildDatasetExec(ctx, mods, cfg, opts, coord.Execute); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	if tc := client.TraceContext(); tc.Valid() {
		t.Errorf("untraced build advertised trace context %+v", tc)
	}
}

// A malformed span-framing header is a protocol error (400), and the
// artifact is not consumed.
func TestCompleteRejectsBadSpanFraming(t *testing.T) {
	mods := fleetModules()
	spec, err := NewBuildSpec(mods, fleetFlow(), 1, flow.RetryPolicy{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// Enqueue cells so slot 0 exists.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go core.BuildDatasetExec(ctx, mods, fleetFlow(), fleetOpts(), coord.Execute)
	deadline := time.Now().Add(2 * time.Second)
	for coord.StatusSnapshot().Cells == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cells never enqueued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/fleet/complete?slot=0&worker=w",
		bytes.NewReader([]byte("payload")))
	req.Header.Set(obs.HeaderSpanBytes, "banana")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad framing status = %d, want 400", resp.StatusCode)
	}

	// A length past the body is equally malformed.
	req2, _ := http.NewRequest(http.MethodPost, srv.URL+"/fleet/complete?slot=0&worker=w",
		bytes.NewReader([]byte("x")))
	req2.Header.Set(obs.HeaderSpanBytes, "999")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize framing status = %d, want 400", resp2.StatusCode)
	}
}
