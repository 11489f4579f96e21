package serve

// Steady-state allocation guards for the serving hot path: once the job,
// matrix and response pools are warm, the complete /predict path — admit,
// decode, coalesce, predict, encode — must not allocate at all, in both
// wire formats.

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race: sync.Pool randomly drops Puts")
	}
	fn() // warm pools and lazily-grown scratch
	if avg := testing.AllocsPerRun(100, fn); avg != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, avg)
	}
}

// zeroAllocServer disables the coalescing window: with one closed-loop
// caller the batcher takes the queued job immediately, so the measurement
// sees the full predict path without timer sleeps. (The timer itself is
// reused and measured allocation-free by the windowed benchmark.)
func zeroAllocServer(t *testing.T) *Server {
	t.Helper()
	return newTestServer(t, Options{Window: -1})
}

func TestServeBytesZeroAllocSharded(t *testing.T) {
	// The sharded admission path — affinity hint, per-shard semaphore,
	// per-shard batcher — must stay allocation-free too: the zero-alloc
	// guarantee survives scale-out.
	s := newTestServer(t, Options{Window: -1, shards: 4})
	req := binaryRequest(randRows(32, 41))
	var dst []byte
	requireZeroAllocs(t, "ServeBytes/sharded", func() {
		out, err := s.ServeBytes(req, true, dst[:0])
		if err != nil {
			t.Fatalf("ServeBytes: %v", err)
		}
		dst = out
	})
}

func TestServeBytesZeroAllocBinary(t *testing.T) {
	s := zeroAllocServer(t)
	req := binaryRequest(randRows(64, 17))
	var dst []byte
	requireZeroAllocs(t, "ServeBytes/binary", func() {
		out, err := s.ServeBytes(req, true, dst[:0])
		if err != nil {
			t.Fatalf("ServeBytes: %v", err)
		}
		dst = out
	})
}

func TestServeBytesZeroAllocJSON(t *testing.T) {
	s := zeroAllocServer(t)
	req := jsonRequest(t, randRows(16, 23))
	var dst []byte
	requireZeroAllocs(t, "ServeBytes/json", func() {
		out, err := s.ServeBytes(req, false, dst[:0])
		if err != nil {
			t.Fatalf("ServeBytes: %v", err)
		}
		dst = out
	})
}

func TestServeBytesZeroAllocWindowed(t *testing.T) {
	// A tiny real window exercises the timer Reset/Stop/drain path; it
	// must reuse the runtime timer, not allocate one per batch. A phantom
	// admission slot keeps allQueued false so the batcher actually waits
	// out the window instead of early-flushing (one shard, so the
	// phantom and the requests share a lane).
	s := newTestServer(t, Options{Window: 20 * time.Microsecond, shards: 1})
	s.shards[0].sem <- struct{}{}
	defer func() { <-s.shards[0].sem }()
	req := binaryRequest(randRows(8, 29))
	var dst []byte
	requireZeroAllocs(t, "ServeBytes/windowed", func() {
		out, err := s.ServeBytes(req, true, dst[:0])
		if err != nil {
			t.Fatalf("ServeBytes: %v", err)
		}
		dst = out
	})
}

func TestServeBytesZeroAllocWithRecorder(t *testing.T) {
	// The flight recorder observes the registry from outside the request
	// path: with a recorder attached (and having sampled), ServeBytes must
	// still be allocation-free — the hot path writes the same atomics
	// whether or not anything is reading them. Samples are taken manually
	// around the measurement, not concurrently, because AllocsPerRun counts
	// mallocs process-wide and a background sampler would pollute it.
	o := obs.New()
	s := newTestServer(t, Options{Window: -1, shards: 2, Obs: o})
	rec := obs.NewRecorder(o.Metrics(), obs.RecorderOptions{Capacity: 16})
	o.Rec = rec
	req := binaryRequest(randRows(32, 53))
	var dst []byte
	rec.Sample() // a populated ring, as in production
	requireZeroAllocs(t, "ServeBytes/recorder", func() {
		out, err := s.ServeBytes(req, true, dst[:0])
		if err != nil {
			t.Fatalf("ServeBytes: %v", err)
		}
		dst = out
	})
	// The recorder saw the traffic the measurement generated.
	s2 := rec.Sample()
	found := false
	for _, c := range s2.Counters {
		if c.Name == obs.MetricServeRequests && c.Delta > 0 {
			found = true
		}
	}
	if !found {
		t.Error("recorder window shows no serve.requests delta after the measured traffic")
	}
}

func TestShedPathZeroAlloc(t *testing.T) {
	// Rejections must be even cheaper than service: the 429 path cannot
	// allocate, or overload would cause collection pressure exactly when
	// the server can least afford it.
	s := newTestServer(t, Options{Window: -1, shards: 1, MaxInflight: 1})
	s.shards[0].sem <- struct{}{} // the one slot is taken: everything else sheds
	defer func() { <-s.shards[0].sem }()
	req := binaryRequest(randRows(1, 37))
	requireZeroAllocs(t, "ServeBytes/shed", func() {
		if _, err := s.ServeBytes(req, true, nil); err != ErrShed {
			t.Fatalf("want ErrShed, got %v", err)
		}
	})
}
