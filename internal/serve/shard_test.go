package serve

// Tests for the multi-core scale-out: shard routing, per-shard admission
// and shedding, prediction byte-identity across shard counts, and the
// one-generation-per-batch reload invariant.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestShardedPredictionsMatchSingleShard is the scale-out reproduction
// contract: the same payloads served through 1-shard and many-shard
// servers must produce byte-identical responses — sharding changes which
// rows share a batch, never what a row scores. Both codecs are checked;
// the JSON case is the in-process twin of the curl probe in check.sh.
func TestShardedPredictionsMatchSingleShard(t *testing.T) {
	single := newTestServer(t, Options{Window: -1, shards: 1})
	sharded := newTestServer(t, Options{Window: 100 * time.Microsecond, shards: 4})
	for seed := int64(0); seed < 8; seed++ {
		for _, rows := range []int{1, 7, 64} {
			rs := randRows(rows, seed)
			for _, in := range []struct {
				codec  string
				req    []byte
				binary bool
			}{
				{"binary", binaryRequest(rs), true},
				{"json", jsonRequest(t, rs), false},
			} {
				want, err := single.ServeBytes(in.req, in.binary, nil)
				if err != nil {
					t.Fatalf("single-shard %s serve (seed %d, %d rows): %v", in.codec, seed, rows, err)
				}
				got, err := sharded.ServeBytes(in.req, in.binary, nil)
				if err != nil {
					t.Fatalf("sharded %s serve (seed %d, %d rows): %v", in.codec, seed, rows, err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("seed %d, %d rows: sharded %s response differs from single-shard", seed, rows, in.codec)
				}
			}
		}
	}
}

// TestShardRoutingSpreadsConcurrentLoad: with every shard's slot count at
// one, concurrent closed-loop clients must be admitted across shards (idle
// shards first, then the affinity hint and round-robin fallback), not
// funnel through one lane.
func TestShardRoutingSpreadsConcurrentLoad(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Options{Window: 200 * time.Microsecond, shards: 4, MaxInflight: 4, Obs: o})
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := binaryRequest(randRows(2, int64(c)))
			var dst []byte
			for i := 0; i < 200; i++ {
				out, err := s.ServeBytes(req, true, dst[:0])
				if err != nil && !errors.Is(err, ErrShed) {
					t.Errorf("client %d: %v", c, err)
					return
				}
				dst = out
			}
		}(c)
	}
	wg.Wait()
	// The shared counters must account for every admitted request across
	// however many shards served them.
	snap := o.Metrics().Snapshot()
	reqs, _ := snap.Counter(obs.MetricServeRequests)
	shed, _ := snap.Counter(obs.MetricServeShed)
	if reqs+shed != clients*200 {
		t.Fatalf("requests %d + shed %d != %d issued", reqs, shed, clients*200)
	}
	if reqs == 0 {
		t.Fatal("no request was admitted")
	}
}

// TestInflightGaugeTracksAdmitted: serve.inflight is the server-wide count
// of admitted requests. It rises while concurrent clients are in flight
// across lanes and reads 0 once they have all returned — an idle server
// must not report a request in flight.
func TestInflightGaugeTracksAdmitted(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Options{Window: 50 * time.Millisecond, shards: 4, MaxInflight: 64, Obs: o})
	inflight := func() float64 {
		v, _ := o.Metrics().Snapshot().Gauge(obs.MetricServeInflight)
		return v
	}
	// Phantom slots keep allQueued false on every lane, so each batch
	// waits out the window and the clients are in flight together. They
	// are not admitted requests and must not show in the gauge.
	for _, sh := range s.shards {
		sh.sem <- struct{}{}
	}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := binaryRequest(randRows(2, int64(c)))
			for i := 0; i < 3; i++ {
				if _, err := s.ServeBytes(req, true, nil); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	peak := 0.0
	for polling := true; polling; {
		select {
		case <-finished:
			polling = false
		case <-time.After(time.Millisecond):
			peak = max(peak, inflight())
		}
	}
	for _, sh := range s.shards {
		<-sh.sem
	}
	if peak < 1 || peak > clients {
		t.Fatalf("peak serve.inflight %v with %d clients in flight, want 1..%d", peak, clients, clients)
	}
	if v := inflight(); v != 0 {
		t.Fatalf("serve.inflight reads %v after every client returned, want 0", v)
	}
}

// TestAllShardsSaturatedSheds is the burst-shedding contract: when every
// shard's admission semaphore is full, a new request must get a fast 429
// (ErrShed), never a hang, and the shed counter must count every one.
func TestAllShardsSaturatedSheds(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Options{Window: -1, shards: 4, MaxInflight: 4, Obs: o})
	// One slot per shard; hold all four — the state four stuck in-flight
	// requests produce.
	for _, sh := range s.shards {
		if cap(sh.sem) != 1 {
			t.Fatalf("shard has %d slots, want 1 (MaxInflight 4 over 4 shards)", cap(sh.sem))
		}
		sh.sem <- struct{}{}
	}
	defer func() {
		for _, sh := range s.shards {
			<-sh.sem
		}
	}()

	const bursts = 10
	start := time.Now()
	for i := 0; i < bursts; i++ {
		_, err := s.ServeBytes(binaryRequest(randRows(1, int64(i))), true, nil)
		if !errors.Is(err, ErrShed) {
			t.Fatalf("burst %d over a saturated server got %v, want ErrShed", i, err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("%d sheds took %v: shedding blocked instead of failing fast", bursts, d)
	}
	if shed, _ := o.Metrics().Snapshot().Counter(obs.MetricServeShed); shed != bursts {
		t.Fatalf("shed counter %d, want %d", shed, bursts)
	}

	// Releasing one slot on any shard restores service: the fallback probe
	// finds it whatever the request's affinity hint says.
	<-s.shards[2].sem
	if _, err := s.ServeBytes(binaryRequest(randRows(1, 99)), true, nil); err != nil {
		t.Fatalf("request after freeing one shard: %v", err)
	}
	s.shards[2].sem <- struct{}{}
}

// TestAdmitPrefersIdleShard: a job whose hint names a busy shard goes to an
// idle one when there is one, and keeps its hinted shard only when every
// shard is busy. Hints alone let two concurrent clients funnel into one
// lane, each batch waiting out the window for the other's request while
// the second lane idles.
func TestAdmitPrefersIdleShard(t *testing.T) {
	s := newTestServer(t, Options{Window: -1, shards: 3, MaxInflight: 6})
	// Every slot taken below is given back before Stop, which waits for
	// all of them; this cleanup runs first, as it is registered last.
	var held []int
	t.Cleanup(func() {
		for _, k := range held {
			<-s.shards[k].sem
		}
	})
	admit := func(hint int32) int32 {
		j := &job{shard: hint}
		sh := s.admit(j)
		if sh == nil || sh != s.shards[j.shard] {
			t.Fatalf("hint %d: admitted on %p, not on the shard the hint was updated to (%d)", hint, sh, j.shard)
		}
		held = append(held, int(j.shard))
		return j.shard
	}
	// A phantom request in flight on shard 0.
	s.shards[0].sem <- struct{}{}
	held = append(held, 0)
	if k := admit(0); k != 1 {
		t.Fatalf("hint 0 with shard 0 busy: admitted on shard %d, want idle shard 1", k)
	}
	// Shards 0 and 1 now hold one request each; shard 2 is the idle one.
	if k := admit(0); k != 2 {
		t.Fatalf("hint 0 with shards 0 and 1 busy: admitted on shard %d, want idle shard 2", k)
	}
	// No shard is idle: the hint decides while it has a free slot.
	if k := admit(1); k != 1 {
		t.Fatalf("hint 1 with every shard busy: admitted on shard %d, want hinted shard 1", k)
	}
	// Shard 1 is now full (2 slots): the request falls through to shard 2.
	if k := admit(1); k != 2 {
		t.Fatalf("hint 1 with shard 1 full: admitted on shard %d, want shard 2", k)
	}
}

// TestReloadSingleGenerationPerBatch is the reload invariant under load:
// a reload mid-traffic (the SIGHUP path) publishes one generation through
// one atomic pointer shared by all shards, and every batch loads it
// exactly once — so every response must match one model's predictions
// wholly, never a row-wise mix of two generations.
func TestReloadSingleGenerationPerBatch(t *testing.T) {
	dir := t.TempDir()
	pathA := saveTestModel(t, dir, "a.json")
	// Model B: same shape, different coefficients (different training
	// seed), so mixed-generation rows would be detectable.
	pB, err := core.Train(synthDataset(80, 77),
		core.TrainOptions{Kind: core.Linear, Seed: 2, Size: core.SizeQuick})
	if err != nil {
		t.Fatalf("training model B: %v", err)
	}
	var bufB bytes.Buffer
	if err := pB.Save(&bufB); err != nil {
		t.Fatalf("saving model B: %v", err)
	}
	pathB := dir + "/b.json"
	if err := os.WriteFile(pathB, bufB.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}

	s := New(Options{Window: time.Millisecond, shards: 2, MaxBatch: 1024})
	t.Cleanup(func() { s.Stop(context.Background()) })
	if _, err := s.LoadModel(pathA); err != nil {
		t.Fatalf("loading model A: %v", err)
	}

	// Reference responses from each generation.
	req := binaryRequest(randRows(16, 5))
	wantA, err := s.ServeBytes(req, true, nil)
	if err != nil {
		t.Fatalf("baseline A: %v", err)
	}
	if _, err := s.LoadModel(pathB); err != nil {
		t.Fatalf("loading model B: %v", err)
	}
	wantB, err := s.ServeBytes(req, true, nil)
	if err != nil {
		t.Fatalf("baseline B: %v", err)
	}
	if bytes.Equal(wantA, wantB) {
		t.Fatal("models A and B predict identically; the test cannot detect mixing")
	}

	// Phantom slots keep allQueued false on every shard so batches really
	// coalesce across requests while reloads race them.
	for _, sh := range s.shards {
		sh.sem <- struct{}{}
	}
	defer func() {
		for _, sh := range s.shards {
			<-sh.sem
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, err := s.ServeBytes(req, true, dst[:0])
				if err != nil {
					t.Errorf("predict during reload: %v", err)
					return
				}
				if !bytes.Equal(out, wantA) && !bytes.Equal(out, wantB) {
					t.Error("response matches neither generation: a batch mixed models")
					return
				}
				dst = out
			}
		}()
	}
	for i := 0; i < 30; i++ {
		p := pathA
		if i%2 == 0 {
			p = pathB
		}
		if _, err := s.LoadModel(p); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedGracefulDrain: Stop must drain shards in fixed order with
// load spread across all of them — every admitted request completes,
// post-drain requests are refused, and Stop stays idempotent.
func TestShardedGracefulDrain(t *testing.T) {
	s := newTestServer(t, Options{Window: time.Millisecond, shards: 4, MaxBatch: 1024})
	const clients = 8
	done := make([]int, clients)
	var wg, ready sync.WaitGroup
	ready.Add(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := binaryRequest(randRows(2, int64(c)))
			var dst []byte
			for {
				out, err := s.ServeBytes(req, true, dst[:0])
				switch {
				case err == nil:
					if done[c] == 0 {
						ready.Done()
					}
					done[c]++
					dst = out
				case errors.Is(err, ErrShed), errors.Is(err, ErrDraining):
					return
				default:
					t.Errorf("client %d during drain: %v", c, err)
					return
				}
			}
		}(c)
	}
	ready.Wait()
	if err := s.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	wg.Wait()
	for c, n := range done {
		if n == 0 {
			t.Errorf("client %d never completed a request before the drain", c)
		}
	}
	_, err := s.ServeBytes(binaryRequest(randRows(1, 9)), true, nil)
	if !errors.Is(err, ErrShed) && !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain request got %v, want shed/draining", err)
	}
	if err := s.Stop(context.Background()); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// TestMaxInflightRoundsUpToShards documents the cap resolution: the total
// stays at least what the caller asked for, split evenly.
func TestMaxInflightRoundsUpToShards(t *testing.T) {
	o := Options{shards: 4, MaxInflight: 10}.withDefaults()
	if o.MaxInflight != 12 {
		t.Fatalf("MaxInflight resolved to %d, want 12 (10 rounded up to a multiple of 4)", o.MaxInflight)
	}
	s := New(o)
	t.Cleanup(func() { s.Stop(context.Background()) })
	for _, sh := range s.shards {
		if cap(sh.sem) != 3 {
			t.Fatalf("shard slots %d, want 3", cap(sh.sem))
		}
	}
}
