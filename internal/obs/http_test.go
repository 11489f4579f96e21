package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestDebugHandler(t *testing.T) {
	o := New()
	o.Count(MetricFlowRuns, 3)
	o.SetGauge(MetricGridCandidatesPerSec, 2.5)
	sp := o.Start("flow", String("design", "d"))
	sp.Child("place").End()
	sp.End()

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/debug/metrics"), &snap); err != nil {
		t.Fatalf("/debug/metrics not a snapshot: %v", err)
	}
	if v, _ := snap.Counter(MetricFlowRuns); v != 3 {
		t.Errorf("metrics endpoint counter=%d, want 3", v)
	}

	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/debug/trace"), &trace); err != nil {
		t.Fatalf("/debug/trace not a trace: %v", err)
	}
	if len(trace.TraceEvents) != 2 {
		t.Errorf("trace endpoint has %d events, want 2", len(trace.TraceEvents))
	}

	vars := string(get("/debug/vars"))
	if !strings.Contains(vars, MetricFlowRuns) {
		t.Errorf("/debug/vars missing %s:\n%s", MetricFlowRuns, vars)
	}

	if resp, err := http.Get(srv.URL + "/nope"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown path returned %d", resp.StatusCode)
		}
	}
}

// TestSlowHeaderClientDisconnected is the slowloris guard: a client that
// sends half a request header line and then stalls must be disconnected
// once readHeaderTimeout passes, not held open indefinitely.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	t.Parallel()
	addr, err := New().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /debug/vars HTTP/1.1\r\nHo"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	limit := readHeaderTimeout + 3*time.Second
	conn.SetReadDeadline(start.Add(limit))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled half-header connection still open after %v: %v", limit, err)
	}
	if d := time.Since(start); d < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout could fire", d, readHeaderTimeout)
	}
}

// TestSlowBodyClientDisconnected is the slow-body guard: a client that
// sends complete headers and then trickles its body, far below
// minBodyRate, must be disconnected once readTimeout passes, even while
// the handler is still reading.
func TestSlowBodyClientDisconnected(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
	}))
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 1048576\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() {
		close(stop)
		<-done
	}()
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte{'x'}); err != nil {
					return
				}
			}
		}
	}()
	limit := readTimeout + 3*time.Second
	conn.SetReadDeadline(start.Add(limit))
	// The server may reset rather than close: the trickled bytes it never
	// read are still queued when it drops the connection.
	var ne net.Error
	if _, err := io.Copy(io.Discard, conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("body-trickling connection still open after %v: %v", limit, err)
	}
	if d := time.Since(start); d < readTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v read timeout could fire", d, readTimeout)
	}
}
