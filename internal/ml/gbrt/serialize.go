package gbrt

import (
	"encoding/json"
	"fmt"
)

// nodeJSON is the wire form of one tree node.
type nodeJSON struct {
	F int     `json:"f"`           // split feature, -1 for leaves
	B uint8   `json:"b,omitempty"` // split bin
	T float64 `json:"t,omitempty"` // real threshold
	L int     `json:"l,omitempty"`
	R int     `json:"r,omitempty"`
	V float64 `json:"v,omitempty"` // leaf value
}

// modelJSON is the wire form of a trained ensemble.
type modelJSON struct {
	NumTrees       int          `json:"num_trees"`
	LearningRate   float64      `json:"learning_rate"`
	MaxDepth       int          `json:"max_depth"`
	MinSamplesLeaf int          `json:"min_samples_leaf"`
	Subsample      float64      `json:"subsample"`
	FeatureFrac    float64      `json:"feature_frac"`
	Bins           int          `json:"bins"`
	Seed           int64        `json:"seed"`
	Base           float64      `json:"base"`
	Trees          [][]nodeJSON `json:"trees"`
	Thresholds     [][]float64  `json:"thresholds"`
	SplitCount     []int        `json:"split_count"`
}

// MarshalJSON serializes the trained model, hyperparameters included, so a
// predictor can be persisted and reloaded without retraining.
func (m *Model) MarshalJSON() ([]byte, error) {
	out := modelJSON{
		NumTrees:       m.NumTrees,
		LearningRate:   m.LearningRate,
		MaxDepth:       m.MaxDepth,
		MinSamplesLeaf: m.MinSamplesLeaf,
		Subsample:      m.Subsample,
		FeatureFrac:    m.FeatureFrac,
		Bins:           m.Bins,
		Seed:           m.Seed,
		Base:           m.base,
		Thresholds:     m.thresholds,
		SplitCount:     m.splitCount,
	}
	for ti := range m.trees {
		t := &m.trees[ti]
		nodes := make([]nodeJSON, len(t.nodes))
		for i, nd := range t.nodes {
			nodes[i] = nodeJSON{F: int(nd.feature), B: nd.bin, T: nd.thresh, L: int(nd.left), R: int(nd.right), V: nd.value}
		}
		out.Trees = append(out.Trees, nodes)
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a trained model and compiles it for prediction.
// Every split must point at children after it in its tree, as the builder
// writes them: that keeps a hostile artifact from making a cycle, which
// prediction would walk forever. Trees deeper than DepthLimit are rejected
// too, so the compiled layout stays bounded.
func (m *Model) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("gbrt: %w", err)
	}
	m.NumTrees = in.NumTrees
	m.LearningRate = in.LearningRate
	m.MaxDepth = in.MaxDepth
	m.MinSamplesLeaf = in.MinSamplesLeaf
	m.Subsample = in.Subsample
	m.FeatureFrac = in.FeatureFrac
	m.Bins = in.Bins
	m.Seed = in.Seed
	m.base = in.Base
	m.thresholds = in.Thresholds
	m.splitCount = in.SplitCount
	m.trees = nil
	m.eval = nil
	for ti, nodes := range in.Trees {
		var t tree
		for i, nd := range nodes {
			feature := int32(-1) // any negative F is a leaf
			if nd.F >= 0 {
				if nd.L < 0 || nd.L >= len(nodes) || nd.R < 0 || nd.R >= len(nodes) {
					return fmt.Errorf("gbrt: tree %d node %d has dangling children", ti, i)
				}
				if nd.F > maxFeature {
					return fmt.Errorf("gbrt: tree %d node %d splits on feature %d, above the limit %d", ti, i, nd.F, maxFeature)
				}
				feature = int32(nd.F)
			}
			t.nodes = append(t.nodes, node{
				feature: feature, bin: nd.B, thresh: nd.T, left: int32(nd.L), right: int32(nd.R), value: nd.V,
			})
		}
		m.trees = append(m.trees, t)
	}
	// Compile checks each tree's shape (tree.depth) before laying it out.
	ev, err := Compile(m)
	if err != nil {
		return err
	}
	m.eval = ev
	return nil
}
