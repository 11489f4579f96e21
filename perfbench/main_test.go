package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the driver's output must
// match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsEmitDeclaredMetrics runs every workload briefly, untraced
// and traced, and checks the result line: outputs correct, nothing failed,
// and exactly the metrics BENCHMARK.json declares, with its units.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w.Name, trace
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				if w == "train" && testing.Short() {
					t.Skip("train fits the full GBRT predictor")
				}
				var out bytes.Buffer
				if err := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace}, "..", &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestNothingAnsweredReportsFiniteMetrics checks the figures of a run in
// which nothing succeeded: they must be finite, or the result line cannot
// be encoded and the run prints no result at all.
func TestNothingAnsweredReportsFiniteMetrics(t *testing.T) {
	p := &phaseResult{rate: nominalRPS, start: time.Now(), failed: 3}
	values := map[string]float64{"ops_per_s": p.throughput() * bodyRows}
	setOverhead(values, 0, 0)
	if p.meets() {
		t.Error("a phase that answered nothing meets the limit")
	}
	for name, v := range values {
		if v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	if _, err := json.Marshal(values); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptArtifactRejected flips one byte of the kept predictor and
// checks that a run refuses it, pointing at the repin subcommand.
func TestCorruptArtifactRejected(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "perfbench", "model")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pins.json", "predictor.json"} {
		b, err := os.ReadFile(modelPath("..", name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "predictor.json" {
			i := bytes.Index(b, []byte(`"num_features"`))
			b[i+1] = 'N'
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	err := run([]string{"--workload", "design-query", "--seconds", "1"}, root, &out)
	if err == nil || !strings.Contains(err.Error(), "repin") {
		t.Fatalf("run with a corrupted artifact: err = %v, want a refusal naming repin", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for a corrupted artifact: %s", out.String())
	}
}
