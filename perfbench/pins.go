package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/store"
)

// pins are the outputs a run at the default seed must reproduce. They are
// kept in perfbench/model/pins.json next to the predictor artifact and
// rewritten only by the repin subcommand.
type pins struct {
	// Samples and DatasetSHA256 pin the paper dataset: the sample count
	// and the sha256 of its columnar store encoding.
	Samples       int    `json:"samples"`
	DatasetSHA256 string `json:"dataset_sha256"`
	// PredictorSHA256 is the sha256 of predictor.json, the GBRT predictor
	// core.Train fits on that dataset.
	PredictorSHA256 string `json:"predictor_sha256"`
	// Designs maps each query design to the digest of its answer: per-op
	// predictions and the top hotspots. The predictor is fixed, so these
	// hold for every seed.
	Designs map[string]string `json:"designs"`
}

const repinHint = "if the change of behaviour is deliberate, run `bash perfbench/run.sh repin` and commit perfbench/model"

func modelPath(dir, name string) string { return filepath.Join(dir, "perfbench", "model", name) }

func loadPins(dir string) (*pins, error) {
	b, err := os.ReadFile(modelPath(dir, "pins.json"))
	if err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	var p pins
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("decoding pins: %w", err)
	}
	return &p, nil
}

// loadArtifact reads the kept predictor, rejects it unless its sha256 is
// the pinned one, and loads it through the library's validated path.
func loadArtifact(dir string, p *pins) (*core.Predictor, error) {
	path := modelPath(dir, "predictor.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading predictor artifact: %w", err)
	}
	if got := sha256Hex(b); got != p.PredictorSHA256 {
		return nil, fmt.Errorf("predictor artifact %s has sha256 %s, pins say %s; %s", path, got, p.PredictorSHA256, repinHint)
	}
	pred, err := core.LoadPredictor(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("loading predictor artifact: %w", err)
	}
	return pred, nil
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// The train workload's fixed settings: the paper dataset build and the
// paper's filtered GBRT. Only the flow seed follows the workload seed.
var (
	buildOpts = core.BuildOptions{LabelRuns: core.LabelRuns, Retry: flow.DefaultRetryPolicy()}
	trainOpts = core.TrainOptions{Kind: core.GBRT, Filter: true, Seed: 1}
)

func trainConfig(seed int64) flow.Config {
	cfg := flow.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

func datasetSHA(ds *dataset.Dataset) string { return sha256Hex(store.EncodeDataset(ds)) }

func predictorBytes(p *core.Predictor) ([]byte, error) {
	var b bytes.Buffer
	if err := p.Save(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// design is one query input: a design's canonical IR text.
type design struct {
	name string
	text string
}

// queryDesigns returns the design-query inputs in name order: every
// bench.Catalog design (Face Detection with its optimized directives) plus
// Face Detection under the paper's three other directive sets.
func queryDesigns() ([]design, error) {
	mods := map[string]*ir.Module{
		"face_detection.without_directives": bench.FaceDetection(bench.WithoutDirectives()),
		"face_detection.not_inline":         bench.FaceDetection(bench.NotInline()),
		"face_detection.replication":        bench.FaceDetection(bench.Replication()),
	}
	for name, gen := range bench.Catalog() {
		mods[name] = gen(bench.WithDirectives())
	}
	var out []design
	for name, m := range mods {
		var b strings.Builder
		if err := ir.WriteText(&b, m); err != nil {
			return nil, fmt.Errorf("writing %s as IR text: %w", name, err)
		}
		out = append(out, design{name: name, text: b.String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// topHotspots is how many hotspots a query answer's digest covers.
const topHotspots = 10

// answerDigest hashes a query answer: every op's ID and predicted V, H and
// Avg congestion as raw float bits, then the top hotspots.
func answerDigest(preds []core.OpPrediction, hs []core.Hotspot) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, p := range preds {
		u64(uint64(p.Op.ID))
		f64(p.VertPct)
		f64(p.HorizPct)
		f64(p.AvgPct)
	}
	for i, s := range hs {
		if i == topHotspots {
			break
		}
		io.WriteString(h, s.Loc.File)
		u64(uint64(s.Loc.Line))
		u64(uint64(s.Ops))
		f64(s.MaxAvg)
		f64(s.MeanV)
		f64(s.MeanH)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// query answers one design the way a designer's tool would: parse the IR
// text, predict every op, rank the source hotspots.
func query(pred *core.Predictor, cfg flow.Config, text string) ([]core.OpPrediction, []core.Hotspot, error) {
	m, err := ir.ParseText(strings.NewReader(text))
	if err != nil {
		return nil, nil, err
	}
	preds, err := pred.PredictModule(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	return preds, core.Hotspots(preds), nil
}

// repin rebuilds the paper dataset at the default seed, retrains the
// predictor, and rewrites the kept artifact and every pin from them.
func repin(dir string, log io.Writer) error {
	cfg := trainConfig(defaultSeed)
	fmt.Fprintln(log, "perfbench repin: building the dataset")
	ds, _, _, err := core.BuildDatasetContext(context.Background(), bench.TrainingModules(), cfg, buildOpts)
	if err != nil {
		return fmt.Errorf("dataset build: %w", err)
	}
	fmt.Fprintln(log, "perfbench repin: training the predictor")
	pred, err := core.Train(ds, trainOpts)
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	art, err := predictorBytes(pred)
	if err != nil {
		return err
	}
	p := pins{
		Samples:         ds.Len(),
		DatasetSHA256:   datasetSHA(ds),
		PredictorSHA256: sha256Hex(art),
		Designs:         map[string]string{},
	}
	designs, err := queryDesigns()
	if err != nil {
		return err
	}
	for _, d := range designs {
		preds, hs, err := query(pred, cfg, d.text)
		if err != nil {
			return fmt.Errorf("query %s: %w", d.name, err)
		}
		p.Designs[d.name] = answerDigest(preds, hs)
	}
	pj, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := writeAtomic(modelPath(dir, "predictor.json"), art); err != nil {
		return err
	}
	if err := writeAtomic(modelPath(dir, "pins.json"), append(pj, '\n')); err != nil {
		return err
	}
	fmt.Fprintf(log, "perfbench repin: %d samples, dataset %s, predictor %s\n", p.Samples, p.DatasetSHA256, p.PredictorSHA256)
	return nil
}

// writeAtomic replaces path with b via a temporary file and a rename.
func writeAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
