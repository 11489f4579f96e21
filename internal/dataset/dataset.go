// Package dataset assembles training data for the congestion predictor:
// one sample per back-traced IR operation, pairing the 302-entry feature
// vector with the vertical/horizontal congestion labels of the CLB the
// operation landed in. It implements the paper's marginal-operation sample
// filtering (Sec. III-C1) and CSV serialization for the cmd/benchgen tool.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/backtrace"
	"repro/internal/features"
	"repro/internal/ir"
)

// Target selects which congestion label a model is trained against.
type Target int

const (
	// Vertical is the vertical congestion percentage.
	Vertical Target = iota
	// Horizontal is the horizontal congestion percentage.
	Horizontal
	// Average is the paper's Avg (V, H) metric.
	Average
)

func (t Target) String() string {
	switch t {
	case Vertical:
		return "Vertical"
	case Horizontal:
		return "Horizontal"
	case Average:
		return "Avg (V, H)"
	}
	return "?"
}

// Targets lists the three labels of Table IV in order.
var Targets = []Target{Vertical, Horizontal, Average}

// Sample is one (features, labels) pair.
type Sample struct {
	Design   string
	OpID     int
	Kind     ir.OpKind
	Src      ir.SourceLoc
	Features []float64

	VertPct  float64
	HorizPct float64
	AvgPct   float64

	// Margin and Replica feed the marginal-operation filter: a replica of
	// an unrolled-loop body placed in the die's outer margin band.
	Margin  bool
	Replica bool
	// ReplicaRoot identifies the unroll group: the ID of the copy-0
	// operation this sample's op replicates, or -1 for an original.
	ReplicaRoot int
}

// Label returns the selected target value.
func (s *Sample) Label(t Target) float64 {
	switch t {
	case Vertical:
		return s.VertPct
	case Horizontal:
		return s.HorizPct
	default:
		return s.AvgPct
	}
}

// marginalDeviation is how far below its unroll-group median a margin
// sample's label must fall to count as a marginal operation.
const marginalDeviation = 0.9

// Dataset is a collection of samples with a shared feature layout.
type Dataset struct {
	FeatureNames []string
	Samples      []*Sample
}

// New returns an empty dataset with the standard 302-feature layout.
func New() *Dataset {
	return &Dataset{FeatureNames: features.Names()}
}

// FromTrace extracts features for every traced operation of one design and
// appends the samples. All feature vectors of the batch share one flat
// preallocated backing array (full-capacity row slices, so an append on a
// row can never bleed into its neighbor), cutting per-op allocations to the
// Sample headers.
func (d *Dataset) FromTrace(design string, traced []backtrace.OpCongestion, ex *features.Extractor) {
	flat := make([]float64, len(traced)*features.NumFeatures)
	for i, t := range traced {
		row := flat[i*features.NumFeatures : (i+1)*features.NumFeatures : (i+1)*features.NumFeatures]
		d.Samples = append(d.Samples, &Sample{
			Design:      design,
			OpID:        t.Op.ID,
			Kind:        t.Op.Kind,
			Src:         t.Op.Src,
			Features:    ex.VectorInto(row, t.Op),
			VertPct:     t.VertPct,
			HorizPct:    t.HorizPct,
			AvgPct:      t.AvgPct,
			Margin:      t.Margin,
			Replica:     t.Op.IsReplica(),
			ReplicaRoot: t.Op.ReplicaOf,
		})
	}
}

// Merge appends another dataset's samples.
func (d *Dataset) Merge(o *Dataset) {
	d.Samples = append(d.Samples, o.Samples...)
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Samples) }

// Marginal reports, per sample, whether it is a marginal operation in the
// paper's sense (Sec. III-C1): an unrolled-loop replica placed at the die
// margin whose label deviates far below the median of its sibling replicas
// — same features, outlier label.
func (d *Dataset) Marginal() []bool {
	return d.MarginalWithDeviation(marginalDeviation)
}

// MarginalWithDeviation is Marginal with an explicit deviation threshold: a
// margin-placed replica counts as marginal when its label falls below
// deviation*median of its unroll group. The ablation experiments sweep this
// knob; the paper's filter corresponds to the package default.
func (d *Dataset) MarginalWithDeviation(deviation float64) []bool {
	medians := d.groupMedians()
	out := make([]bool, len(d.Samples))
	for i, s := range d.Samples {
		if !s.Replica || !s.Margin {
			continue
		}
		med, ok := medians[groupKey{s.Design, s.ReplicaRoot}]
		if !ok {
			continue
		}
		out[i] = s.AvgPct < deviation*med
	}
	return out
}

type groupKey struct {
	design string
	root   int
}

// groupMedians returns the median average-congestion label per unroll
// group.
func (d *Dataset) groupMedians() map[groupKey]float64 {
	groups := make(map[groupKey][]float64)
	for _, s := range d.Samples {
		if s.ReplicaRoot < 0 {
			continue
		}
		k := groupKey{s.Design, s.ReplicaRoot}
		groups[k] = append(groups[k], s.AvgPct)
	}
	out := make(map[groupKey]float64, len(groups))
	for k, vals := range groups {
		sort.Float64s(vals)
		n := len(vals)
		if n%2 == 1 {
			out[k] = vals[n/2]
		} else {
			out[k] = (vals[n/2-1] + vals[n/2]) / 2
		}
	}
	return out
}

// FilterMarginal returns a copy without marginal operations, plus the
// number removed. The paper reports ~3.4 % of operations filtered.
func (d *Dataset) FilterMarginal() (*Dataset, int) {
	out := &Dataset{FeatureNames: d.FeatureNames}
	marg := d.Marginal()
	removed := 0
	for i, s := range d.Samples {
		if marg[i] {
			removed++
			continue
		}
		out.Samples = append(out.Samples, s)
	}
	return out, removed
}

// MarginalFraction returns the share of samples the filter would remove.
func (d *Dataset) MarginalFraction() float64 {
	if len(d.Samples) == 0 {
		return 0
	}
	n := 0
	for _, m := range d.Marginal() {
		if m {
			n++
		}
	}
	return float64(n) / float64(len(d.Samples))
}

// Matrix exports the design matrix and target vector for one label.
func (d *Dataset) Matrix(t Target) ([][]float64, []float64) {
	X := make([][]float64, len(d.Samples))
	y := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		X[i] = s.Features
		y[i] = s.Label(t)
	}
	return X, y
}

// WriteCSV serializes the dataset with a header row. Layout: design, op_id,
// kind, src, margin, replica, vert, horiz, avg, then the feature columns.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cols := append([]string{"design", "op_id", "kind", "src", "margin", "replica",
		"replica_root", "vert_pct", "horiz_pct", "avg_pct"}, d.FeatureNames...)
	if _, err := bw.WriteString(strings.Join(cols, ",") + "\n"); err != nil {
		return err
	}
	for _, s := range d.Samples {
		row := make([]string, 0, len(cols))
		row = append(row,
			s.Design,
			strconv.Itoa(s.OpID),
			s.Kind.String(),
			s.Src.String(),
			strconv.FormatBool(s.Margin),
			strconv.FormatBool(s.Replica),
			strconv.Itoa(s.ReplicaRoot),
			formatF(s.VertPct),
			formatF(s.HorizPct),
			formatF(s.AvgPct),
		)
		for _, f := range s.Features {
			row = append(row, formatF(f))
		}
		if _, err := bw.WriteString(strings.Join(row, ",") + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	// The buffer grows from nil as lines need it, up to a 4 MiB line.
	sc.Buffer(nil, 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: empty CSV")
	}
	header := strings.Split(sc.Text(), ",")
	const meta = 10
	if len(header) <= meta {
		return nil, fmt.Errorf("dataset: header has %d columns", len(header))
	}
	d := &Dataset{FeatureNames: header[meta:]}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != len(header) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(fields), len(header))
		}
		s := &Sample{Design: fields[0]}
		var err error
		if s.OpID, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("dataset: line %d op_id: %w", line, err)
		}
		s.Src = parseLoc(fields[3])
		s.Margin = fields[4] == "true"
		s.Replica = fields[5] == "true"
		if s.ReplicaRoot, err = strconv.Atoi(fields[6]); err != nil {
			return nil, fmt.Errorf("dataset: line %d replica_root: %w", line, err)
		}
		if s.VertPct, err = strconv.ParseFloat(fields[7], 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d vert: %w", line, err)
		}
		if s.HorizPct, err = strconv.ParseFloat(fields[8], 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d horiz: %w", line, err)
		}
		if s.AvgPct, err = strconv.ParseFloat(fields[9], 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d avg: %w", line, err)
		}
		s.Features = make([]float64, len(header)-meta)
		for j := meta; j < len(fields); j++ {
			if s.Features[j-meta], err = strconv.ParseFloat(fields[j], 64); err != nil {
				return nil, fmt.Errorf("dataset: line %d col %d: %w", line, j, err)
			}
		}
		d.Samples = append(d.Samples, s)
	}
	return d, sc.Err()
}

func parseLoc(s string) ir.SourceLoc {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return ir.SourceLoc{File: s}
	}
	line, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return ir.SourceLoc{File: s}
	}
	return ir.SourceLoc{File: s[:i], Line: line}
}
