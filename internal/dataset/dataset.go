// Package dataset assembles training data for the congestion predictor:
// one sample per back-traced IR operation, pairing the 302-entry feature
// vector with the vertical/horizontal congestion labels of the CLB the
// operation landed in. It implements the paper's marginal-operation sample
// filtering (Sec. III-C1).
package dataset

import (
	"sort"

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
