package obs

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestPromTextFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.requests").Add(42)
	reg.Counter("9lives").Add(1)
	reg.Counter("a.b").Add(1)
	reg.Counter("a_b").Add(2) // collides with a.b once sanitized
	reg.Gauge("serve.inflight").Set(3.5)
	reg.Gauge("edge.pos_inf").Set(math.Inf(1))
	reg.Gauge("edge.neg_inf").Set(math.Inf(-1))
	reg.Gauge("edge.nan").Set(math.NaN())
	reg.Histogram("serve.idle_us", []float64{10, 100}) // never observed
	h := reg.Histogram("serve.latency_us", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if err := lintProm(got); err != nil {
		t.Fatalf("exposition fails the lint: %v\n---\n%s", err, got)
	}
	want := []string{
		"# TYPE serve_requests counter\n",
		"serve_requests 42\n",
		"# TYPE _9lives counter\n",
		"_9lives 1\n",
		"# TYPE serve_inflight gauge\n",
		"serve_inflight 3.5\n",
		"edge_pos_inf +Inf\n",
		"edge_neg_inf -Inf\n",
		"edge_nan NaN\n",
		"# TYPE serve_latency_us histogram\n",
		`serve_latency_us_bucket{le="10"} 1` + "\n",
		`serve_latency_us_bucket{le="100"} 2` + "\n",
		`serve_latency_us_bucket{le="+Inf"} 3` + "\n",
		"serve_latency_us_sum 5055\n",
		"serve_latency_us_count 3\n",
		`serve_idle_us_bucket{le="+Inf"} 0` + "\n",
		"serve_idle_us_count 0\n",
	}
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("prom output missing %q\n---\n%s", w, got)
		}
	}
}

// TestPromSnapshotUnderTraffic scrapes a histogram while two goroutines
// observe into it. Every exposition must be self-consistent — in
// particular _count must equal the +Inf bucket — even though no scrape
// waits for the traffic to stop.
func TestPromSnapshotUnderTraffic(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("serve.latency_us", LatencyMicrosBuckets)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64((i*7919 + w) % 500000))
			}
		}(w)
	}
	defer func() { close(stop); wg.Wait() }()

	var buf bytes.Buffer
	for i := 0; i < 2000; i++ {
		buf.Reset()
		if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if err := lintProm(buf.String()); err != nil {
			t.Fatalf("scrape %d: %v\n---\n%s", i, err, buf.String())
		}
	}
}

func TestPromNameSanitize(t *testing.T) {
	cases := map[string]string{
		"serve.latency_us":      "serve_latency_us",
		"serve.lane.A.requests": "serve_lane_A_requests",
		"9lives":                "_9lives",
		"ok:colon":              "ok:colon",
		"":                      "_",
		"sp ace":                "sp_ace",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Names that collide after sanitizing keep the first series only — a
// scraper rejects duplicate series outright.
func TestPromCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.b").Add(1)
	reg.Counter("a_b").Add(2)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "# TYPE a_b counter"); n != 1 {
		t.Errorf("collision produced %d TYPE lines, want 1\n%s", n, buf.String())
	}
	if n := strings.Count(buf.String(), "\na_b "); n != 1 {
		t.Errorf("collision produced %d samples, want 1\n%s", n, buf.String())
	}
}

// TestPromLintRejects keeps the lint honest: each exposition breaks one
// rule and must be refused.
func TestPromLintRejects(t *testing.T) {
	const hist = "# TYPE h histogram\n"
	cases := map[string]string{
		"empty":              "",
		"sample before TYPE": "c 1\n# TYPE c counter\n",
		"illegal name":       "# TYPE 9c counter\n9c 1\n",
		"unparseable value":  "# TYPE c counter\nc one\n",
		"duplicate series":   "# TYPE c counter\nc 1\nc 2\n",
		"no samples":         "# TYPE c counter\n",
		"not cumulative":     hist + "h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"bounds descending":  hist + "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"no +Inf bucket":     hist + "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"+Inf != count":      hist + "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n",
		"no _sum":            hist + "h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	}
	for name, text := range cases {
		if lintProm(text) == nil {
			t.Errorf("%s: lint accepted\n%s", name, text)
		}
	}
}

// promHist accumulates one histogram family's series while linting.
type promHist struct {
	buckets  int
	lastLe   float64
	lastCum  int64
	infCum   int64
	sawInf   bool
	sum      bool
	count    bool
	countVal int64
}

// lintProm validates a Prometheus text exposition the way a strict
// ingester would: every sample's family is TYPE-declared first, names are
// in the legal charset, values parse, no series repeats, and histogram
// families are internally consistent — buckets cumulative with ascending
// bounds, a trailing +Inf bucket equal to _count, and _sum and _count
// present. An exposition with no families at all is refused: from a live
// server it means a truncated download.
func lintProm(text string) error {
	types := map[string]string{}
	series := map[string]bool{}
	samples := map[string]int{}
	hists := map[string]*promHist{}
	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 2 || f[1] != "TYPE" {
				continue // HELP and free comments pass through
			}
			if len(f) != 4 {
				return fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
			}
			name, typ := f[2], f[3]
			if !validPromName(name) {
				return fmt.Errorf("line %d: illegal metric name %q", lineNo, name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				return fmt.Errorf("line %d: unknown type %q for %s", lineNo, typ, name)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("line %d: %s TYPE declared twice", lineNo, name)
			}
			types[name] = typ
			if typ == "histogram" {
				hists[name] = &promHist{}
			}
			continue
		}
		name, labels, value, err := splitPromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !validPromName(name) {
			return fmt.Errorf("line %d: illegal metric name %q", lineNo, name)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("line %d: value %q does not parse", lineNo, value)
		}
		if series[name+labels] {
			return fmt.Errorf("line %d: duplicate series %s%s", lineNo, name, labels)
		}
		series[name+labels] = true

		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, s); trimmed != name && types[trimmed] == "histogram" {
				base, suffix = trimmed, s
				break
			}
		}
		typ, declared := types[base]
		if !declared {
			return fmt.Errorf("line %d: sample %s has no TYPE declaration above it", lineNo, name)
		}
		samples[base]++
		if typ != "histogram" {
			if labels != "" {
				return fmt.Errorf("line %d: unexpected labels on %s %s", lineNo, typ, name)
			}
			continue
		}
		h := hists[base]
		switch suffix {
		case "_bucket":
			le, ok := strings.CutPrefix(labels, `{le="`)
			le, ok2 := strings.CutSuffix(le, `"}`)
			if !ok || !ok2 {
				return fmt.Errorf("line %d: bucket labels %q are not {le=\"...\"}", lineNo, labels)
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: bucket bound %q does not parse", lineNo, le)
				}
			}
			cum := int64(v)
			if h.sawInf {
				return fmt.Errorf("line %d: bucket after the +Inf bucket of %s", lineNo, base)
			}
			if h.buckets > 0 && bound <= h.lastLe {
				return fmt.Errorf("line %d: %s bucket bounds not ascending (%v after %v)", lineNo, base, bound, h.lastLe)
			}
			if cum < h.lastCum {
				return fmt.Errorf("line %d: %s buckets not cumulative (%d after %d)", lineNo, base, cum, h.lastCum)
			}
			h.buckets++
			h.lastLe, h.lastCum = bound, cum
			if math.IsInf(bound, 1) {
				h.sawInf, h.infCum = true, cum
			}
		case "_sum":
			h.sum = true
		case "_count":
			h.count, h.countVal = true, int64(v)
		default:
			return fmt.Errorf("line %d: bare sample %s for histogram %s", lineNo, name, base)
		}
	}
	if len(types) == 0 {
		return fmt.Errorf("no metric families: empty or truncated exposition")
	}
	for name, typ := range types {
		if samples[name] == 0 {
			return fmt.Errorf("%s declared %s but has no samples", name, typ)
		}
		if typ != "histogram" {
			continue
		}
		h := hists[name]
		switch {
		case h.buckets == 0:
			return fmt.Errorf("histogram %s has no buckets", name)
		case !h.sawInf:
			return fmt.Errorf("histogram %s has no +Inf bucket", name)
		case !h.sum || !h.count:
			return fmt.Errorf("histogram %s is missing _sum or _count", name)
		case h.infCum != h.countVal:
			return fmt.Errorf("histogram %s +Inf bucket %d != count %d", name, h.infCum, h.countVal)
		}
	}
	return nil
}

// splitPromSample splits `name[{labels}] value [timestamp]`.
func splitPromSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unbalanced braces in %q", line)
		}
		name, labels, rest = line[:i], line[i:j+1], line[j+1:]
	} else if sp := strings.IndexByte(line, ' '); sp >= 0 {
		name, rest = line[:sp], line[sp:]
	} else {
		return "", "", "", fmt.Errorf("sample %q has no value", line)
	}
	f := strings.Fields(rest)
	if len(f) < 1 || len(f) > 2 {
		return "", "", "", fmt.Errorf("sample %q is not `name value [timestamp]`", line)
	}
	return name, labels, f[0], nil
}

// validPromName reports whether name is in [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		digit := r >= '0' && r <= '9'
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (digit && i > 0)
		if !ok {
			return false
		}
	}
	return true
}
