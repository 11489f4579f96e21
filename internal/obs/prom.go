package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4), so any standard scraper can pull
// congserve or an hlscong -debug-addr endpoint without a sidecar:
//
//	# TYPE serve_requests counter
//	serve_requests 1234
//	# TYPE serve_latency_us histogram
//	serve_latency_us_bucket{le="25"} 10
//	...
//	serve_latency_us_bucket{le="+Inf"} 400
//	serve_latency_us_sum 81234
//	serve_latency_us_count 400
//
// Metric names are sanitized to the Prometheus charset (dots become
// underscores); histogram buckets are emitted cumulatively, as the format
// requires, even though snapshots store per-bucket counts. Output is
// deterministic: the snapshot is already name-sorted, and a post-sanitize
// name collision keeps the first series and drops the rest rather than
// emitting a duplicate an ingester would reject.
func WritePrometheus(w io.Writer, snap Snapshot) error {
	bw := bufio.NewWriter(w)
	seen := make(map[string]bool)
	for _, c := range snap.Counters {
		name := promName(c.Name)
		if seen[name] {
			continue
		}
		seen[name] = true
		bw.WriteString("# TYPE " + name + " counter\n")
		bw.WriteString(name + " " + strconv.FormatInt(c.Value, 10) + "\n")
	}
	for _, g := range snap.Gauges {
		name := promName(g.Name)
		if seen[name] {
			continue
		}
		seen[name] = true
		bw.WriteString("# TYPE " + name + " gauge\n")
		bw.WriteString(name + " " + promFloat(g.Value) + "\n")
	}
	for _, h := range snap.Histograms {
		name := promName(h.Name)
		if seen[name] {
			continue
		}
		seen[name] = true
		bw.WriteString("# TYPE " + name + " histogram\n")
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = promFloat(b.UpperBound)
			}
			bw.WriteString(name + `_bucket{le="` + le + `"} ` + strconv.FormatInt(cum, 10) + "\n")
		}
		bw.WriteString(name + "_sum " + promFloat(h.Sum) + "\n")
		bw.WriteString(name + "_count " + strconv.FormatInt(h.Count, 10) + "\n")
	}
	return bw.Flush()
}

// promName maps a dotted metric name onto the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_') // leading digit: prefix rather than replace
			b.WriteRune(r)
			continue
		}
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if !ok {
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promFloat renders a float sample value. Non-finite values use the
// format's spellings (+Inf, -Inf, NaN).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
