package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/obs"
)

// synthDataset builds a small synthetic training set with the library's
// real 302-feature layout: the serving tests need a structurally valid
// predictor, not an accurate one.
func synthDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New()
	for i := 0; i < n; i++ {
		f := make([]float64, features.NumFeatures)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		v := 20 + 5*f[0] - 3*f[1] + rng.NormFloat64()
		h := 18 + 4*f[2] + 2*f[0] + rng.NormFloat64()
		ds.Samples = append(ds.Samples, &dataset.Sample{
			Design: "synthetic", OpID: i, Features: f,
			VertPct: v, HorizPct: h, AvgPct: (v + h) / 2,
			ReplicaRoot: -1,
		})
	}
	return ds
}

var (
	testPredOnce sync.Once
	testPred     *core.Predictor
	testPredErr  error
)

// testPredictor returns a process-wide quick Linear predictor (trained
// once; lasso keeps every test fast).
func testPredictor(t testing.TB) *core.Predictor {
	t.Helper()
	testPredOnce.Do(func() {
		testPred, testPredErr = core.Train(synthDataset(80, 11),
			core.TrainOptions{Kind: core.Linear, Seed: 1, Size: core.SizeQuick})
	})
	if testPredErr != nil {
		t.Fatalf("training test predictor: %v", testPredErr)
	}
	return testPred
}

// saveTestModel writes the shared test predictor as an artifact file.
func saveTestModel(t testing.TB, dir, name string) string {
	t.Helper()
	p := testPredictor(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("saving model: %v", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatalf("writing model: %v", err)
	}
	return path
}

// newTestServer builds a server with a loaded model; cleanup stops it.
func newTestServer(t testing.TB, opts Options) *Server {
	t.Helper()
	s := New(opts)
	path := saveTestModel(t, t.TempDir(), "model.json")
	if _, err := s.LoadModel(path); err != nil {
		t.Fatalf("loading model: %v", err)
	}
	t.Cleanup(func() { s.Stop(context.Background()) })
	return s
}

// randRows generates feature rows of the library's width.
func randRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, features.NumFeatures)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		rows[i] = row
	}
	return rows
}

// binaryRequest encodes rows as a ContentF64 payload.
func binaryRequest(rows [][]float64) []byte {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(rows)))
	b = binary.LittleEndian.AppendUint32(b, uint32(cols))
	for _, row := range rows {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// jsonRequest encodes rows as the wrapped JSON payload.
func jsonRequest(t testing.TB, rows [][]float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// decodeF64Response splits a binary response into its three sections.
func decodeF64Response(t testing.TB, b []byte) (vert, horiz, avg []float64) {
	t.Helper()
	if len(b) < 4 {
		t.Fatalf("binary response truncated: %d bytes", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if want := 4 + 3*8*n; want != len(b) {
		t.Fatalf("binary response is %d bytes, want %d for %d rows", len(b), want, n)
	}
	sec := func(k int) []float64 {
		out := make([]float64, n)
		off := 4 + 8*k*n
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8*i:]))
		}
		return out
	}
	return sec(0), sec(1), sec(2)
}

func TestServeBytesMatchesPredictSample(t *testing.T) {
	s := newTestServer(t, Options{})
	rows := randRows(9, 3)
	p := testPredictor(t)

	out, err := s.ServeBytes(binaryRequest(rows), true, nil)
	if err != nil {
		t.Fatalf("ServeBytes(binary): %v", err)
	}
	vert, horiz, avg := decodeF64Response(t, out)
	for i, row := range rows {
		v, h, a := p.PredictSample(row)
		if vert[i] != v || horiz[i] != h || avg[i] != a {
			t.Fatalf("row %d: served (%v %v %v) want (%v %v %v)", i, vert[i], horiz[i], avg[i], v, h, a)
		}
	}

	// The JSON surface must agree with the binary one to full round-trip
	// precision (the encoder emits shortest-round-trip forms).
	jout, err := s.ServeBytes(jsonRequest(t, rows), false, nil)
	if err != nil {
		t.Fatalf("ServeBytes(json): %v", err)
	}
	var resp struct {
		Rows  int       `json:"rows"`
		Vert  []float64 `json:"vert"`
		Horiz []float64 `json:"horiz"`
		Avg   []float64 `json:"avg"`
	}
	if err := json.Unmarshal(jout, &resp); err != nil {
		t.Fatalf("response JSON: %v", err)
	}
	if resp.Rows != len(rows) {
		t.Fatalf("response rows %d, want %d", resp.Rows, len(rows))
	}
	for i := range rows {
		if resp.Vert[i] != vert[i] || resp.Horiz[i] != horiz[i] || resp.Avg[i] != avg[i] {
			t.Fatalf("row %d: JSON response diverges from binary", i)
		}
	}
}

func TestCoalescingFormsOneBatch(t *testing.T) {
	o := obs.New()
	// One shard so every client funnels into the same batcher lane.
	s := newTestServer(t, Options{Window: 40 * time.Millisecond, MaxBatch: 1024, shards: 1, Obs: o})

	// A phantom admission slot keeps allQueued false, so the batcher must
	// wait out the window — every client then lands in the same batch.
	s.shards[0].sem <- struct{}{}
	defer func() { <-s.shards[0].sem }()

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := s.ServeBytes(binaryRequest(randRows(3, int64(c))), true, nil); err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
	snap := o.Metrics().Snapshot()
	batches, _ := snap.Counter(obs.MetricServeBatches)
	preds, _ := snap.Counter(obs.MetricServePredictions)
	if preds != clients*3 {
		t.Fatalf("predictions counter %d, want %d", preds, clients*3)
	}
	// All clients launch before the 40ms window closes, so they must land
	// in far fewer batches than requests; 8 singleton batches would mean
	// coalescing never happened.
	if batches >= clients {
		t.Fatalf("%d requests produced %d batches: no coalescing", clients, batches)
	}
	h := snap.Histogram(obs.MetricServeBatchRows)
	if h == nil || h.Max < 6 {
		t.Fatalf("max batch rows %v, want a coalesced batch of at least 2 requests", h)
	}
}

func TestClosedLoopFlushesEarly(t *testing.T) {
	// With one client in flight the batcher can prove no companion is
	// coming (allQueued) and must flush immediately — a lone request never
	// pays the window, even an absurd one.
	s := newTestServer(t, Options{Window: 5 * time.Second, MaxBatch: 1024})
	start := time.Now()
	if _, err := s.ServeBytes(binaryRequest(randRows(2, 4)), true, nil); err != nil {
		t.Fatalf("ServeBytes: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("lone request took %v: waited out the window instead of early-flushing", d)
	}
}

func TestBatchSizeCapClosesEarly(t *testing.T) {
	o := obs.New()
	// Window far longer than the test: only the row cap can close a batch.
	s := newTestServer(t, Options{Window: 5 * time.Second, MaxBatch: 4, Obs: o})
	out, err := s.ServeBytes(binaryRequest(randRows(16, 5)), true, nil)
	if err != nil {
		t.Fatalf("ServeBytes: %v", err)
	}
	if v, _, _ := decodeF64Response(t, out); len(v) != 16 {
		t.Fatalf("got %d rows back, want 16", len(v))
	}
	if batches, _ := o.Metrics().Snapshot().Counter(obs.MetricServeBatches); batches != 1 {
		t.Fatalf("one oversized request produced %d batches, want 1", batches)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Options{Window: 30 * time.Millisecond, MaxBatch: 1024, shards: 1, MaxInflight: 2, Obs: o})

	// Hold both admission slots — exactly the state two slow in-flight
	// requests produce — so the next request is shed immediately instead
	// of queueing.
	s.shards[0].sem <- struct{}{}
	s.shards[0].sem <- struct{}{}
	_, err := s.ServeBytes(binaryRequest(randRows(1, 9)), true, nil)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("request over the inflight cap got %v, want ErrShed", err)
	}
	if shed, _ := o.Metrics().Snapshot().Counter(obs.MetricServeShed); shed != 1 {
		t.Fatalf("shed counter %d, want 1", shed)
	}

	// Releasing one slot restores service.
	<-s.shards[0].sem
	if _, err := s.ServeBytes(binaryRequest(randRows(1, 10)), true, nil); err != nil {
		t.Fatalf("request after slot release: %v", err)
	}
	<-s.shards[0].sem
}

func TestBatchShapeRejectedPerRequest(t *testing.T) {
	s := newTestServer(t, Options{})

	// Wrong width: typed shape error names both widths.
	narrow := [][]float64{make([]float64, 7)}
	_, err := s.ServeBytes(binaryRequest(narrow), true, nil)
	var shape *core.BatchShapeError
	if !errors.As(err, &shape) {
		t.Fatalf("narrow rows got %v, want *core.BatchShapeError", err)
	}
	if shape.Got != 7 || shape.Want != features.NumFeatures {
		t.Fatalf("shape error %+v, want Got=7 Want=%d", shape, features.NumFeatures)
	}

	// Ragged JSON: rejected at decode with ErrBadPayload.
	_, err = s.ServeBytes([]byte(`[[1,2],[1,2,3]]`), false, nil)
	if !errors.Is(err, ErrBadPayload) {
		t.Fatalf("ragged JSON got %v, want ErrBadPayload", err)
	}
}

func TestNoModelAndEmptyBatch(t *testing.T) {
	s := New(Options{})
	t.Cleanup(func() { s.Stop(context.Background()) })
	_, err := s.ServeBytes(binaryRequest(randRows(1, 1)), true, nil)
	if !errors.Is(err, ErrNoModel) {
		t.Fatalf("predict before load got %v, want ErrNoModel", err)
	}
	// Zero rows answer without touching the model at all.
	out, err := s.ServeBytes([]byte(`{"rows": []}`), false, nil)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if want := `{"rows":0,"vert":[],"horiz":[],"avg":[]}` + "\n"; string(out) != want {
		t.Fatalf("empty batch response %q, want %q", out, want)
	}
}

func TestHotReloadAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := saveTestModel(t, dir, "model.json")
	o := obs.New()
	s := New(Options{Obs: o})
	t.Cleanup(func() { s.Stop(context.Background()) })
	if _, err := s.LoadModel(path); err != nil {
		t.Fatalf("loading model: %v", err)
	}
	req := binaryRequest(randRows(2, 42))
	want, err := s.ServeBytes(req, true, nil)
	if err != nil {
		t.Fatalf("baseline predict: %v", err)
	}

	// Hammer predictions while reloads race: every request must be served
	// by a complete model — identical results, no errors, no downtime.
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
				if !bytes.Equal(out, want) {
					t.Error("prediction changed during same-artifact reload")
					return
				}
				dst = out
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}

	// An invalid artifact must be rejected with the old model untouched.
	if err := os.WriteFile(path, []byte(`{"kind": 99, "garbage": true}`), 0o666); err != nil {
		t.Fatalf("corrupting artifact: %v", err)
	}
	if _, err := s.Reload(); err == nil {
		t.Fatal("reload of corrupt artifact succeeded, want error")
	}
	close(stop)
	wg.Wait()

	m := s.Model()
	if m == nil || m.Generation != 21 {
		t.Fatalf("model generation %+v, want 21 (1 load + 20 reloads, corrupt one rejected)", m)
	}
	snap := o.Metrics().Snapshot()
	if n, _ := snap.Counter(obs.MetricServeReloads); n != 21 {
		t.Errorf("reload counter %d, want 21", n)
	}
	if n, _ := snap.Counter(obs.MetricServeReloadErrors); n != 1 {
		t.Errorf("reload-error counter %d, want 1", n)
	}
	// Still serving after the rejected reload.
	if _, err := s.ServeBytes(req, true, nil); err != nil {
		t.Fatalf("predict after rejected reload: %v", err)
	}
}

func TestGracefulDrainCompletesInflight(t *testing.T) {
	s := newTestServer(t, Options{Window: time.Millisecond, MaxBatch: 1024})

	// Clients hammer predictions while Stop races them: every request
	// admitted before the drain must complete with a real answer — the
	// batcher flushes its final window instead of abandoning jobs — and
	// requests arriving after it must be refused, never dropped.
	const clients = 4
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
	// Stop only once every client has a completed request behind it and
	// more in flight — the drain then races live traffic by construction.
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

	// After the drain every new request is refused, not queued.
	_, err := s.ServeBytes(binaryRequest(randRows(1, 9)), true, nil)
	if !errors.Is(err, ErrShed) && !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain request got %v, want shed/draining", err)
	}
	// Stop is idempotent.
	if err := s.Stop(context.Background()); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	dir := t.TempDir()
	path := saveTestModel(t, dir, "model.json")
	o := obs.New()
	s := New(Options{Obs: o})
	t.Cleanup(func() { s.Stop(context.Background()) })
	if _, err := s.LoadModel(path); err != nil {
		t.Fatalf("loading model: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get(ts.URL + "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", code, body)
	}
	var health struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Features   int    `json:"features"`
		Kind       string `json:"kind"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz JSON: %v in %q", err, body)
	}
	if health.Status != "ok" || health.Generation != 1 || health.Features != features.NumFeatures {
		t.Fatalf("healthz %+v, want ok/gen1/%d features", health, features.NumFeatures)
	}

	// JSON predict round trip over real HTTP.
	rows := randRows(3, 2)
	resp, err := http.Post(ts.URL+"/predict", ContentJSON, bytes.NewReader(jsonRequest(t, rows)))
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict status %d: %s", resp.StatusCode, rb)
	}
	var pr struct {
		Rows int       `json:"rows"`
		Vert []float64 `json:"vert"`
	}
	if err := json.Unmarshal(rb, &pr); err != nil {
		t.Fatalf("/predict JSON: %v", err)
	}
	if pr.Rows != 3 || len(pr.Vert) != 3 {
		t.Fatalf("/predict answered %d rows, want 3", pr.Rows)
	}

	// Binary predict with the binary content type.
	resp, err = http.Post(ts.URL+"/predict", ContentF64, bytes.NewReader(binaryRequest(rows)))
	if err != nil {
		t.Fatalf("POST /predict (binary): %v", err)
	}
	rb, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != ContentF64 {
		t.Fatalf("binary /predict status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if v, _, _ := decodeF64Response(t, rb); len(v) != 3 {
		t.Fatalf("binary /predict answered %d rows, want 3", len(v))
	}

	// Client data errors are 400s.
	resp, err = http.Post(ts.URL+"/predict", ContentJSON, bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatalf("POST bad payload: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad payload status %d, want 400", resp.StatusCode)
	}

	// Reload over HTTP bumps the generation.
	resp, err = http.Post(ts.URL+"/reload", "", nil)
	if err != nil {
		t.Fatalf("POST /reload: %v", err)
	}
	rb, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reload status %d: %s", resp.StatusCode, rb)
	}
	code, body = get(ts.URL + "/healthz")
	if err := json.Unmarshal([]byte(body), &health); err != nil || health.Generation != 2 {
		t.Fatalf("healthz after reload: %v gen=%d body=%q", err, health.Generation, body)
	}

	// A corrupt artifact rejects over HTTP with 422 and keeps serving.
	if err := os.WriteFile(path, []byte("junk"), 0o666); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/reload", "", nil)
	if err != nil {
		t.Fatalf("POST /reload (corrupt): %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload status %d, want 422", resp.StatusCode)
	}
	if code, _ = get(ts.URL + "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after rejected reload: %d", code)
	}

	// The obs debug endpoint is mounted on the same mux.
	code, body = get(ts.URL + "/debug/vars")
	if code != http.StatusOK || !bytes.Contains([]byte(body), []byte("serve.requests")) {
		t.Fatalf("/debug/vars status %d body %q", code, body)
	}
}

func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrShed, http.StatusTooManyRequests},
		{ErrNoModel, http.StatusServiceUnavailable},
		{ErrDraining, http.StatusServiceUnavailable},
		{fmt.Errorf("wrap: %w", ErrBadPayload), http.StatusBadRequest},
		{&core.BatchShapeError{Row: 0, Got: 3, Want: 302}, http.StatusBadRequest},
		{errors.New("mystery"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
