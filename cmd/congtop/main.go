// congtop is the terminal dashboard over the /debug observability
// surface: it polls a /debug/metrics/history ring (congserve samples it
// every -history-interval, hlscong -debug-addr every second) and repaints
// a live view of what the flight recorder sees — counter rates, gauges,
// histogram window p50/p99.
//
// congtop reads the derived series the recorder already computed; it does
// no rate math of its own, so what it shows is exactly what a breach
// capture would have dumped to disk at that moment.
//
// Usage:
//
//	congtop -addr HOST:PORT [flags]
//
// Flags:
//
//	-addr HOST:PORT   /debug endpoint to poll (required)
//	-interval DUR     poll interval (default 1s)
//	-frames N         exit after N frames (0 = run until interrupted)
//	-once             one frame, no screen control, then exit
//	                  (exit 1 when the endpoint is unreachable)
//	-plain            no ANSI escapes: frames append instead of repainting
//
// A metric with no window activity is elided, so an idle process renders
// a short frame rather than a wall of zeros.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	addr := flag.String("addr", "", "debug endpoint HOST:PORT (required)")
	interval := flag.Duration("interval", time.Second, "poll interval")
	frames := flag.Int("frames", 0, "exit after N frames (0 = until interrupted)")
	once := flag.Bool("once", false, "render one frame and exit (1 on fetch failure)")
	plain := flag.Bool("plain", false, "no ANSI escapes; append frames instead of repainting")
	flag.Parse()
	if *addr == "" || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	if *once {
		*frames = 1
		*plain = true
	}

	client := &http.Client{Timeout: 5 * time.Second}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)

	painted := false
	for n := 0; *frames == 0 || n < *frames; n++ {
		if n > 0 {
			select {
			case <-sig:
				return 0
			case <-time.After(*interval):
			}
		}
		hist, err := fetchHistory(client, *addr)
		frame := renderFrame(*addr, hist, err)
		if *plain {
			os.Stdout.WriteString(frame)
		} else {
			// Home the cursor and clear below rather than clearing the whole
			// screen per frame — no flicker, and partial lines from a
			// previous, taller frame never linger.
			if !painted {
				os.Stdout.WriteString("\x1b[2J")
				painted = true
			}
			os.Stdout.WriteString("\x1b[H" + frame + "\x1b[J")
		}
		if *once && err != nil {
			fmt.Fprintln(os.Stderr, "congtop:", err)
			return 1
		}
	}
	return 0
}

// fetchHistory pulls the recorder ring from /debug/metrics/history.
func fetchHistory(client *http.Client, addr string) (*obs.RecorderHistory, error) {
	resp, err := client.Get("http://" + addr + "/debug/metrics/history")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/metrics/history: HTTP %d", resp.StatusCode)
	}
	var env obs.RecorderHistory
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("decoding history: %w", err)
	}
	return &env, nil
}

// renderFrame formats one full screen of output.
func renderFrame(addr string, hist *obs.RecorderHistory, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "congtop  %s  %s\n", addr, time.Now().Format("15:04:05"))
	switch {
	case err != nil:
		fmt.Fprintf(&b, "  (unreachable: %v)\n", err)
	case hist == nil || len(hist.Samples) == 0:
		// hlscong -debug-addr and congserve both sample once a second;
		// congserve -history-interval 0 runs no recorder at all.
		b.WriteString("  (no samples yet — the target's recorder has not sampled, or it runs none)\n")
	default:
		s := hist.Samples[len(hist.Samples)-1]
		fmt.Fprintf(&b, "sample #%d  window %dms  ring %d/%d @ %dms\n",
			s.Seq, s.WindowMs, len(hist.Samples), hist.Capacity, hist.IntervalMs)
		renderCounters(&b, s)
		renderGauges(&b, s)
		renderHists(&b, s)
	}
	return b.String()
}

func renderCounters(b *strings.Builder, s obs.RecorderSample) {
	active := make([]obs.CounterRate, 0, len(s.Counters))
	for _, c := range s.Counters {
		if c.Delta != 0 || c.PerSec != 0 {
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		return
	}
	sort.Slice(active, func(i, j int) bool { return active[i].PerSec > active[j].PerSec })
	fmt.Fprintf(b, "\n%-28s %12s %10s %12s\n", "COUNTER", "total", "delta", "per-sec")
	for _, c := range active {
		fmt.Fprintf(b, "%-28s %12d %10d %12.1f\n", clip(c.Name, 28), c.Total, c.Delta, c.PerSec)
	}
}

func renderGauges(b *strings.Builder, s obs.RecorderSample) {
	shown := false
	for _, g := range s.Gauges {
		if !shown {
			fmt.Fprintf(b, "\n%-28s %12s\n", "GAUGE", "value")
			shown = true
		}
		fmt.Fprintf(b, "%-28s %12.2f\n", clip(g.Name, 28), g.Value)
	}
}

func renderHists(b *strings.Builder, s obs.RecorderSample) {
	shown := false
	for _, h := range s.Hists {
		if h.Count == 0 {
			continue
		}
		if !shown {
			fmt.Fprintf(b, "\n%-28s %10s %12s %12s\n", "HISTOGRAM (window)", "count", "p50", "p99")
			shown = true
		}
		fmt.Fprintf(b, "%-28s %10d %12.1f %12.1f\n", clip(h.Name, 28), h.Count, h.P50, h.P99)
	}
}

// clip shortens s to fit an n-column field, marking the cut with an
// ellipsis so columns stay aligned under arbitrary metric names.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 3 {
		return s[:n]
	}
	return s[:n-3] + "..."
}
