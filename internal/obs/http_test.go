package obs

import (
	"encoding/json"
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
