package gbrt

// Frozen reference implementation of the GBRT trainer, kept verbatim from
// before the flat fast path (row-major binned matrix, pointer nodes,
// append-based partition, per-node histogram scans) with ref* renames.
// The equivalence tests train both implementations on the same data with
// the same seeds and demand *byte-identical* ensembles and predictions:
// the fast path (column-major shared binning, value-node arenas, in-place
// stable partition, sibling count-histogram subtraction, flattened
// forest) is a pure layout/scheduling change, never a numeric one. Same
// pattern as internal/place/equiv_test.go and internal/route/equiv_test.go.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

type refModel struct {
	NumTrees       int
	LearningRate   float64
	MaxDepth       int
	MinSamplesLeaf int
	Subsample      float64
	FeatureFrac    float64
	Bins           int
	Seed           int64

	base       float64
	trees      []*refTree
	thresholds [][]float64
	splitCount []int
}

type refNode struct {
	feature int
	bin     uint8
	thresh  float64
	left    int
	right   int
	value   float64
}

type refTree struct {
	nodes []*refNode
}

func (m *refModel) fit(X [][]float64, y []float64) error {
	n := len(X)
	d := len(X[0])
	if m.NumTrees <= 0 {
		m.NumTrees = 200
	}
	if m.LearningRate <= 0 {
		m.LearningRate = 0.1
	}
	if m.MaxDepth <= 0 {
		m.MaxDepth = 4
	}
	if m.MinSamplesLeaf <= 0 {
		m.MinSamplesLeaf = 5
	}
	if m.Subsample <= 0 || m.Subsample > 1 {
		m.Subsample = 1
	}
	if m.FeatureFrac <= 0 || m.FeatureFrac > 1 {
		m.FeatureFrac = 1
	}
	if m.Bins <= 1 || m.Bins > 256 {
		m.Bins = 64
	}
	rng := rand.New(rand.NewSource(m.Seed))

	binned, thresholds := m.binize(X, d)
	m.thresholds = thresholds
	m.splitCount = make([]int, d)

	m.base = 0
	for _, v := range y {
		m.base += v
	}
	m.base /= float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.base
	}
	residual := make([]float64, n)
	m.trees = m.trees[:0]

	rows := make([]int, n)
	features := make([]int, d)
	for j := range features {
		features[j] = j
	}
	nFeat := int(float64(d) * m.FeatureFrac)
	if nFeat < 1 {
		nFeat = 1
	}

	for t := 0; t < m.NumTrees; t++ {
		for i := range residual {
			residual[i] = y[i] - pred[i]
		}
		rows = rows[:0]
		if m.Subsample < 1 {
			for i := 0; i < n; i++ {
				if rng.Float64() < m.Subsample {
					rows = append(rows, i)
				}
			}
			if len(rows) < 2*m.MinSamplesLeaf {
				for i := 0; i < n; i++ {
					rows = append(rows[:0], i)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				rows = append(rows, i)
			}
		}
		tr := &refTree{}
		b := &refBuilder{
			m: m, binned: binned, residual: residual, tree: tr,
			rng: rng, features: features, nFeat: nFeat, dims: d,
		}
		b.grow(rows, 0)
		m.trees = append(m.trees, tr)
		for i := 0; i < n; i++ {
			pred[i] += tr.predictBinned(binned[i])
		}
	}
	return nil
}

func (m *refModel) binize(X [][]float64, d int) ([][]uint8, [][]float64) {
	n := len(X)
	thresholds := make([][]float64, d)
	vals := make([]float64, n)
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			vals[i] = X[i][j]
		}
		sort.Float64s(vals)
		var th []float64
		for b := 1; b < m.Bins; b++ {
			q := vals[b*(n-1)/m.Bins]
			if len(th) == 0 || q > th[len(th)-1] {
				th = append(th, q)
			}
		}
		thresholds[j] = th
	}
	binned := make([][]uint8, n)
	for i := 0; i < n; i++ {
		row := make([]uint8, d)
		for j := 0; j < d; j++ {
			row[j] = refBinOf(X[i][j], thresholds[j])
		}
		binned[i] = row
	}
	return binned, thresholds
}

func refBinOf(v float64, th []float64) uint8 {
	lo, hi := 0, len(th)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= th[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo)
}

type refBuilder struct {
	m        *refModel
	binned   [][]uint8
	residual []float64
	tree     *refTree
	rng      *rand.Rand
	features []int
	nFeat    int
	dims     int
}

func (b *refBuilder) grow(rows []int, depth int) int {
	sum := 0.0
	for _, i := range rows {
		sum += b.residual[i]
	}
	mean := sum / float64(len(rows))

	leaf := func() int {
		nd := &refNode{feature: -1, value: b.m.LearningRate * mean}
		b.tree.nodes = append(b.tree.nodes, nd)
		return len(b.tree.nodes) - 1
	}
	if depth >= b.m.MaxDepth || len(rows) < 2*b.m.MinSamplesLeaf {
		return leaf()
	}
	feat, bin, gain := b.bestSplit(rows, sum)
	if feat < 0 || gain <= 1e-12 {
		return leaf()
	}
	var left, right []int
	for _, i := range rows {
		if b.binned[i][feat] <= bin {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.m.MinSamplesLeaf || len(right) < b.m.MinSamplesLeaf {
		return leaf()
	}
	b.m.splitCount[feat]++
	th := b.m.thresholds[feat]
	thresh := 0.0
	if int(bin) < len(th) {
		thresh = th[bin]
	} else if len(th) > 0 {
		thresh = th[len(th)-1]
	}
	nd := &refNode{feature: feat, bin: bin, thresh: thresh}
	b.tree.nodes = append(b.tree.nodes, nd)
	idx := len(b.tree.nodes) - 1
	nd.left = b.grow(left, depth+1)
	nd.right = b.grow(right, depth+1)
	return idx
}

func (b *refBuilder) bestSplit(rows []int, total float64) (feat int, bin uint8, gain float64) {
	nT := float64(len(rows))
	baseScore := total * total / nT
	feat = -1

	cand := b.features
	if b.nFeat < b.dims {
		cand = make([]int, b.nFeat)
		perm := b.rng.Perm(b.dims)
		copy(cand, perm[:b.nFeat])
	}
	var cnt [256]int
	var sums [256]float64
	for _, j := range cand {
		nb := len(b.m.thresholds[j]) + 1
		if nb < 2 {
			continue
		}
		for k := 0; k < nb; k++ {
			cnt[k] = 0
			sums[k] = 0
		}
		for _, i := range rows {
			bv := b.binned[i][j]
			cnt[bv]++
			sums[bv] += b.residual[i]
		}
		cl, sl := 0, 0.0
		for k := 0; k < nb-1; k++ {
			cl += cnt[k]
			sl += sums[k]
			cr := len(rows) - cl
			if cl < b.m.MinSamplesLeaf || cr < b.m.MinSamplesLeaf {
				continue
			}
			sr := total - sl
			g := sl*sl/float64(cl) + sr*sr/float64(cr) - baseScore
			if g > gain {
				gain = g
				feat = j
				bin = uint8(k)
			}
		}
	}
	return feat, bin, gain
}

func (t *refTree) predictBinned(row []uint8) float64 {
	i := 0
	for {
		nd := t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if row[nd.feature] <= nd.bin {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

func (m *refModel) predict(x []float64) float64 {
	s := m.base
	for _, t := range m.trees {
		i := 0
		for {
			nd := t.nodes[i]
			if nd.feature < 0 {
				s += nd.value
				break
			}
			if x[nd.feature] <= nd.thresh {
				i = nd.left
			} else {
				i = nd.right
			}
		}
	}
	return s
}

// equivData synthesizes a regression set with informative, duplicated and
// constant columns so trees exercise ties, single-bin features and deep
// splits.
func equivData(seed int64, n, d int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			switch {
			case j == d-1:
				row[j] = 3.25 // constant column: one bin, never split
			case j%5 == 4:
				row[j] = row[j-1] // duplicated column
			case j%3 == 0:
				row[j] = float64(rng.Intn(8)) // heavy ties
			default:
				row[j] = rng.NormFloat64()
			}
		}
		X[i] = row
		y[i] = 2*row[0] + math.Sin(row[1]*3) + 0.5*row[2]*row[2] + 0.1*rng.NormFloat64()
	}
	return X, y
}

// equivConfigs covers the default path, stochastic row subsampling (rng
// draws + the degenerate-fallback path), feature subsampling (per-node
// rng.Perm, shared histograms disabled) and a deeper tree.
func equivConfigs() []Model {
	return []Model{
		{NumTrees: 12, LearningRate: 0.2, MaxDepth: 3, MinSamplesLeaf: 4, Subsample: 1, FeatureFrac: 1, Bins: 16},
		{NumTrees: 10, LearningRate: 0.1, MaxDepth: 4, MinSamplesLeaf: 5, Subsample: 0.7, FeatureFrac: 1, Bins: 32},
		{NumTrees: 8, LearningRate: 0.15, MaxDepth: 4, MinSamplesLeaf: 3, Subsample: 0.8, FeatureFrac: 0.5, Bins: 64},
		{NumTrees: 6, LearningRate: 0.3, MaxDepth: 6, MinSamplesLeaf: 2, Subsample: 0.02, FeatureFrac: 1, Bins: 8}, // forces the subsample fallback
	}
}

func refFrom(cfg Model, seed int64) *refModel {
	return &refModel{
		NumTrees: cfg.NumTrees, LearningRate: cfg.LearningRate, MaxDepth: cfg.MaxDepth,
		MinSamplesLeaf: cfg.MinSamplesLeaf, Subsample: cfg.Subsample, FeatureFrac: cfg.FeatureFrac,
		Bins: cfg.Bins, Seed: seed,
	}
}

func requireSameEnsemble(t *testing.T, ref *refModel, m *Model) {
	t.Helper()
	if math.Float64bits(ref.base) != math.Float64bits(m.base) {
		t.Fatalf("base: ref %v fast %v", ref.base, m.base)
	}
	if len(ref.trees) != len(m.trees) {
		t.Fatalf("tree count: ref %d fast %d", len(ref.trees), len(m.trees))
	}
	for ti := range ref.trees {
		rn, fn := ref.trees[ti].nodes, m.trees[ti].nodes
		if len(rn) != len(fn) {
			t.Fatalf("tree %d: ref %d nodes, fast %d", ti, len(rn), len(fn))
		}
		for ni := range rn {
			r, f := rn[ni], fn[ni]
			if r.feature != int(f.feature) || r.bin != f.bin || r.left != int(f.left) || r.right != int(f.right) ||
				math.Float64bits(r.thresh) != math.Float64bits(f.thresh) ||
				math.Float64bits(r.value) != math.Float64bits(f.value) {
				t.Fatalf("tree %d node %d: ref %+v fast %+v", ti, ni, *r, f)
			}
		}
	}
	if len(ref.splitCount) != len(m.splitCount) {
		t.Fatalf("splitCount len: ref %d fast %d", len(ref.splitCount), len(m.splitCount))
	}
	for j := range ref.splitCount {
		if ref.splitCount[j] != m.splitCount[j] {
			t.Fatalf("splitCount[%d]: ref %d fast %d", j, ref.splitCount[j], m.splitCount[j])
		}
	}
	for j := range ref.thresholds {
		if len(ref.thresholds[j]) != len(m.thresholds[j]) {
			t.Fatalf("thresholds[%d] len mismatch", j)
		}
		for k := range ref.thresholds[j] {
			if math.Float64bits(ref.thresholds[j][k]) != math.Float64bits(m.thresholds[j][k]) {
				t.Fatalf("thresholds[%d][%d] mismatch", j, k)
			}
		}
	}
}

// TestGBRTEquivalence is the tentpole gate: across seeds and
// configurations the fast path must produce byte-identical ensembles and
// predictions to the frozen reference.
func TestGBRTEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17} {
		X, y := equivData(seed, 150, 11)
		probe, _ := equivData(seed+1000, 40, 11)
		for ci, cfg := range equivConfigs() {
			ref := refFrom(cfg, seed)
			if err := ref.fit(X, y); err != nil {
				t.Fatalf("seed %d cfg %d: ref fit: %v", seed, ci, err)
			}
			fast := cfg // copy
			fast.Seed = seed
			if err := fast.Fit(X, y); err != nil {
				t.Fatalf("seed %d cfg %d: fast fit: %v", seed, ci, err)
			}
			requireSameEnsemble(t, ref, &fast)
			for _, x := range probe {
				r, f := ref.predict(x), fast.Predict(x)
				if math.Float64bits(r) != math.Float64bits(f) {
					t.Fatalf("seed %d cfg %d: predict ref %v fast %v", seed, ci, r, f)
				}
			}
			out := make([]float64, len(probe))
			fast.PredictBatchInto(out, probe)
			for i, x := range probe {
				if math.Float64bits(out[i]) != math.Float64bits(ref.predict(x)) {
					t.Fatalf("seed %d cfg %d: batch predict row %d diverges", seed, ci, i)
				}
			}
		}
	}
}

// TestGBRTFitSharedEquivalence checks the grid-search fast path: training
// from a shared Prebin digest is byte-identical to a standalone Fit, and
// incompatible digests fall back safely.
func TestGBRTFitSharedEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		X, y := equivData(seed, 120, 9)
		for ci, cfg := range equivConfigs() {
			plain := cfg
			plain.Seed = seed
			if err := plain.Fit(X, y); err != nil {
				t.Fatalf("fit: %v", err)
			}
			shared := cfg
			shared.Seed = seed
			digest := shared.PrepareShared(X)
			if err := shared.FitShared(digest, X, y); err != nil {
				t.Fatalf("fit shared: %v", err)
			}
			ref := refFrom(cfg, seed)
			if err := ref.fit(X, y); err != nil {
				t.Fatalf("ref fit: %v", err)
			}
			requireSameEnsemble(t, ref, &shared)
			_ = plain

			// Digest from different rows: must fall back to Fit and still
			// match the reference.
			otherX, _ := equivData(seed+99, 80, 9)
			fb := cfg
			fb.Seed = seed
			if err := fb.FitShared(fb.PrepareShared(otherX), X, y); err != nil {
				t.Fatalf("fallback fit shared: %v", err)
			}
			requireSameEnsemble(t, ref, &fb)
			if ci == 0 {
				// nil digest falls back too.
				nd := cfg
				nd.Seed = seed
				if err := nd.FitShared(nil, X, y); err != nil {
					t.Fatalf("nil-digest fit shared: %v", err)
				}
				requireSameEnsemble(t, ref, &nd)
			}
		}
	}
}

// wideMixedData is a wide matrix with the cardinality mix of the paper's
// features — constant, binary, and three- or four-valued columns — plus
// 260 continuous columns. At Bins 256 each continuous column fills all
// 256 bins, so the compact histogram needs more than 65,535 slots and a
// slot index narrower than 32 bits would alias features onto each other.
// The target leans on the last continuous columns, whose slots lie past
// that limit.
func wideMixedData(seed int64, n int) ([][]float64, []float64) {
	const few, cont = 24, 260
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, few+cont)
		for j := 0; j < few; j++ {
			switch j % 4 {
			case 0:
				row[j] = 1.5 // constant: one bin, never split
			case 1:
				row[j] = float64(rng.Intn(2))
			default:
				row[j] = float64(rng.Intn(3 + j%2))
			}
		}
		for j := few; j < len(row); j++ {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		d := len(row)
		y[i] = 2*row[d-1] - row[d-2]*row[d-3] + 0.5*row[1] + 0.3*row[2] + 0.1*rng.NormFloat64()
	}
	return X, y
}

// TestGBRTWideMixedEquivalence holds the compact histogram layout to the
// frozen reference on a shape the small equivData cannot reach: hundreds
// of columns of very different bin counts and more than 65,535 slots,
// with and without feature subsampling.
func TestGBRTWideMixedEquivalence(t *testing.T) {
	cfgs := []Model{
		{NumTrees: 4, LearningRate: 0.2, MaxDepth: 4, MinSamplesLeaf: 3, Subsample: 0.8, FeatureFrac: 1, Bins: 256},
		{NumTrees: 3, LearningRate: 0.3, MaxDepth: 5, MinSamplesLeaf: 2, Subsample: 1, FeatureFrac: 1, Bins: 256},
		{NumTrees: 4, LearningRate: 0.2, MaxDepth: 4, MinSamplesLeaf: 3, Subsample: 0.8, FeatureFrac: 0.3, Bins: 256},
	}
	for _, seed := range []int64{1, 2} {
		X, y := wideMixedData(seed, 300)
		probe, _ := wideMixedData(seed+1000, 40)
		if pb := NewPrebin(X, 256); pb.off[pb.d] <= math.MaxUint16 {
			t.Fatalf("seed %d: %d histogram slots, want more than %d", seed, pb.off[pb.d], math.MaxUint16)
		}
		for ci, cfg := range cfgs {
			ref := refFrom(cfg, seed)
			if err := ref.fit(X, y); err != nil {
				t.Fatalf("seed %d cfg %d: ref fit: %v", seed, ci, err)
			}
			fast := cfg
			fast.Seed = seed
			if err := fast.Fit(X, y); err != nil {
				t.Fatalf("seed %d cfg %d: fast fit: %v", seed, ci, err)
			}
			requireSameEnsemble(t, ref, &fast)
			for _, x := range probe {
				if r, f := ref.predict(x), fast.Predict(x); math.Float64bits(r) != math.Float64bits(f) {
					t.Fatalf("seed %d cfg %d: predict ref %v fast %v", seed, ci, r, f)
				}
			}
		}
	}
}

// TestGBRTSharedPrebinAcrossTargetsEquivalence checks what core.Train
// relies on: one Prebin, prepared once, fits several targets over the
// same rows, and each ensemble serializes to the same bytes as a plain
// Fit on that target.
func TestGBRTSharedPrebinAcrossTargetsEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		X, y0 := equivData(seed, 150, 11)
		y1 := make([]float64, len(X))
		y2 := make([]float64, len(X))
		for i, x := range X {
			y1[i] = x[1]*x[4] - math.Abs(x[6])
			y2[i] = (y0[i] + y1[i]) / 2
		}
		for ci, cfg := range equivConfigs() {
			prep := cfg.PrepareShared(X)
			for ti, y := range [][]float64{y0, y1, y2} {
				shared, plain := cfg, cfg
				shared.Seed, plain.Seed = seed, seed
				if err := shared.FitShared(prep, X, y); err != nil {
					t.Fatalf("seed %d cfg %d target %d: fit shared: %v", seed, ci, ti, err)
				}
				if err := plain.Fit(X, y); err != nil {
					t.Fatalf("seed %d cfg %d target %d: fit: %v", seed, ci, ti, err)
				}
				got, err := json.Marshal(&shared)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(&plain)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d cfg %d target %d: shared-Prebin ensemble differs from a plain Fit", seed, ci, ti)
				}
			}
		}
	}
}
