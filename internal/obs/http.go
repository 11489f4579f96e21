package obs

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// Timeouts of every HTTP listener in the repo (the debug endpoint, the
// serving daemon and the fleet coordinator). ReadHeaderTimeout bounds how
// long a connection may take to deliver its request headers, so a client
// that trickles half a header line (slowloris) cannot hold a goroutine and
// a descriptor forever. ReadTimeout does the same for a client that sends
// its headers and then trickles the body: it bounds the whole request,
// and allows the serving daemon's largest body (16 MiB) at
// minBodyRate, 1 MiB/s (8 Mbit/s), after the headers' own allowance. A
// fleet completion (at most 64 MiB) must arrive at about 4 MiB/s, which a
// coordinator's loopback or LAN link clears by far. (net/http also
// cancels the request context of a handler still running when
// ReadTimeout passes; no handler behind these listeners watches it.)
// IdleTimeout closes
// keep-alive connections that stop sending requests. There is
// deliberately no WriteTimeout: debug profiles and fleet leases
// legitimately take long to answer.
const (
	readHeaderTimeout = 5 * time.Second
	minBodyRate       = 1 << 20 // bytes per second
	readTimeout       = readHeaderTimeout + (16<<20)/minBodyRate*time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns an http.Server for h with the shared timeouts.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Handler returns the observer's debug endpoint, in the spirit of
// expvar's /debug/vars:
//
//	/debug/metrics          — JSON metrics snapshot (Snapshot schema)
//	/debug/metrics/prom     — the same snapshot in Prometheus text
//	                          exposition format (version 0.0.4), for
//	                          standard scrapers
//	/debug/metrics/history  — the attached Recorder's ring buffer
//	                          (RecorderHistory schema): rates, deltas and
//	                          window quantiles over time
//	/debug/trace    — Chrome trace_event JSON of the spans finished so far
//	/debug/vars     — flat expvar-style name→value object (counters and
//	                  gauges only), for scrapers that want one number per
//	                  line of jq
//
// Handlers snapshot on every request, so a long dataset build can be
// watched live. Nil-safe: a nil observer serves empty documents.
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		o.WriteMetricsJSON(w)
	})
	mux.HandleFunc("/debug/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, o.Metrics().Snapshot())
	})
	mux.HandleFunc("/debug/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var rec *Recorder
		if o != nil {
			rec = o.Rec
		}
		rec.WriteHistoryJSON(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var t *Tracer
		if o != nil {
			t = o.Trace
		}
		WriteChromeTrace(w, t.Spans())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := o.Metrics().Snapshot()
		fmt.Fprint(w, "{")
		sep := ""
		for _, c := range snap.Counters {
			fmt.Fprintf(w, "%s\n  %s: %d", sep, jsonString(c.Name), c.Value)
			sep = ","
		}
		for _, g := range snap.Gauges {
			fmt.Fprintf(w, "%s\n  %s: %s", sep, jsonString(g.Name), jsonValue(g.Value))
			sep = ","
		}
		fmt.Fprint(w, "\n}\n")
	})
	return mux
}

// Serve exposes the debug endpoint on addr (e.g. "localhost:6060") in a
// background goroutine, returning the bound listener address — the ":0"
// form picks a free port, which the endpoint tests rely on. The server
// lives until the process exits; long runs are its whole point.
func (o *Observer) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: debug endpoint: %w", err)
	}
	go NewHTTPServer(o.Handler()).Serve(ln)
	return ln.Addr().String(), nil
}
