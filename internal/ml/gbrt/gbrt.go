// Package gbrt implements gradient-boosted regression trees — the paper's
// best-performing model. Stage-wise least-squares boosting fits shallow CART
// trees to the running residuals; split search uses quantile-binned feature
// histograms for speed; feature importance follows the paper's measure, the
// number of times a feature is used as a split point across the ensemble.
//
// The training fast path works on a binned matrix (Prebin) that is
// hyperparameter-independent and therefore shareable across every
// candidate of a grid search, and across the targets of one training set,
// fitted on the same rows (ml.SharedTrainer). Split-search histograms are
// compact: feature j owns slots off[j] .. off[j+1]-1, one per bin it really
// has, so a set of mostly binary and few-valued features needs a fraction
// of the d×Bins slots a fixed stride would zero and scatter into at every
// node. Prebin stores each cell's global slot index row-major, so one pass
// over a node's rows fills every feature's sums (and counts) with
// arena[slot] += r. Tree growth uses a flat value-typed node arena, a
// stable in-place row partition over one shared index array, and exact
// histogram subtraction for sibling node *counts*. Per-bin residual sums
// keep the direct scan: float subtraction would not reproduce the original
// accumulation order, and every optimization here is gated on
// byte-identical ensembles (equiv_test.go).
//
// Prediction runs on a compiled layout (Compile, Evaluator), built at the
// end of Fit and UnmarshalJSON; core compiles a predictor's V, H and Avg
// models into one Evaluator. Each feature gets a table: the sorted distinct
// thresholds of every split the evaluator covers (not the stored
// quantiles). A row is binned once, bin(x) being the number of table
// entries t with !(x <= t). For a sorted distinct table, x <= t_b holds
// exactly when bin(x) <= b, for every x including ±Inf and ±0, and NaN
// bins past every entry and goes right as x <= t sends it; so comparing
// bins is comparing floats. Bins are uint8: a feature may have at most 255
// thresholds, which Fit (Bins <= 256) never exceeds. Every tree is stored
// complete to its ensemble's depth D in heap order — D levels of split
// slots holding a uint16 feature and a uint8 bin, then 2^D leaf values,
// where a leaf above depth D fills every slot below it — and is walked as
// k = 2k+1+(bin > b), exactly D times, with no data-dependent branch, four
// rows at a time. Each row still adds the base and then one leaf per tree
// in tree order, so predictions are bit-identical to walking the trees
// with x <= thresh. DepthLimit (12) bounds D: Fit refuses deeper trees,
// and UnmarshalJSON refuses trees deeper than it or with a child that does
// not follow its parent, which would allow a cycle.
package gbrt

import (
	"fmt"
	"math/rand"
	"sort"
)

// Model is a gradient-boosted tree ensemble for regression.
type Model struct {
	NumTrees       int     // boosting stages (default 200)
	LearningRate   float64 // shrinkage per stage (default 0.1)
	MaxDepth       int     // tree depth (default 4)
	MinSamplesLeaf int     // minimum rows per leaf (default 5)
	Subsample      float64 // row fraction per stage, <1 = stochastic (default 0.8)
	FeatureFrac    float64 // feature fraction searched per node (default 1.0)
	Bins           int     // histogram bins per feature (default 64, max 256)
	Seed           int64   // subsampling seed

	base       float64
	trees      []tree
	eval       *Evaluator  // the trees compiled for prediction
	thresholds [][]float64 // per-feature bin upper edges
	splitCount []int       // per-feature split-point count (importance)
}

// New returns a model with the given stage count and learning rate.
func New(numTrees int, learningRate float64, seed int64) *Model {
	return &Model{
		NumTrees:       numTrees,
		LearningRate:   learningRate,
		MaxDepth:       4,
		MinSamplesLeaf: 5,
		Subsample:      0.8,
		FeatureFrac:    1.0,
		Bins:           64,
		Seed:           seed,
	}
}

// node is one tree vertex in the flat arena. Values, not pointers: a tree
// is one contiguous []node and Predict never chases a heap pointer.
type node struct {
	feature int32 // split feature, -1 for leaves
	bin     uint8 // split bin: go left when binned value <= bin
	left    int32
	right   int32
	thresh  float64 // real-valued threshold for prediction
	value   float64 // leaf prediction (already shrunk)
}

type tree struct {
	nodes []node
}

// Prebin is the quantile-binned form of a training matrix: per-feature bin
// thresholds, one uint8 bin index per cell (column-major, feature j
// occupying binned[j*n : (j+1)*n]) and the same cells as histogram slot
// indices (row-major). It depends only on the data and the bin count —
// never on tree count, depth, learning rate, seed or target — so one
// Prebin serves every model fitted on the same rows (ml.SharedTrainer). A
// Prebin owns its storage and is immutable after construction; concurrent
// readers are safe.
type Prebin struct {
	bins, n, d int
	thresholds [][]float64
	binned     []uint8 // column-major: feature j at binned[j*n : (j+1)*n]
	// off[j] is feature j's first histogram slot; it owns
	// len(thresholds[j])+1 slots, and off[d] is the histogram size.
	off []int
	// slots holds cell (i, j) as off[j]+bin, row-major: row i at
	// slots[i*d : (i+1)*d]. uint32 covers 256 bins for 16M features.
	slots []uint32
}

// NewPrebin quantile-bins X with the given bin count (out-of-range values
// select the package default, matching Fit's normalization).
func NewPrebin(X [][]float64, bins int) *Prebin {
	if bins <= 1 || bins > 256 {
		bins = 64
	}
	n := len(X)
	pb := &Prebin{bins: bins, n: n}
	if n == 0 {
		return pb
	}
	pb.d = len(X[0])
	pb.thresholds = make([][]float64, pb.d)
	vals := make([]float64, n)
	for j := 0; j < pb.d; j++ {
		for i := 0; i < n; i++ {
			vals[i] = X[i][j]
		}
		sort.Float64s(vals)
		var th []float64
		for b := 1; b < bins; b++ {
			q := vals[b*(n-1)/bins]
			if len(th) == 0 || q > th[len(th)-1] {
				th = append(th, q)
			}
		}
		pb.thresholds[j] = th
	}
	pb.off = make([]int, pb.d+1)
	for j, th := range pb.thresholds {
		pb.off[j+1] = pb.off[j] + len(th) + 1
	}
	pb.binned = make([]uint8, pb.d*n)
	for j := 0; j < pb.d; j++ {
		th := pb.thresholds[j]
		col := pb.binned[j*n : (j+1)*n]
		for i := 0; i < n; i++ {
			col[i] = binOf(X[i][j], th)
		}
	}
	// Row-major slot matrix: split search walks whole rows (one contiguous
	// strip of d slot indices per row), the partition walks single columns.
	pb.slots = make([]uint32, n*pb.d)
	for j := 0; j < pb.d; j++ {
		col := pb.binned[j*n : (j+1)*n]
		base := uint32(pb.off[j])
		for i := 0; i < n; i++ {
			pb.slots[i*pb.d+j] = base + uint32(col[i])
		}
	}
	return pb
}

// col returns feature j's bin column.
func (pb *Prebin) col(j int) []uint8 { return pb.binned[j*pb.n : (j+1)*pb.n] }

// applyDefaults normalizes the hyperparameters exactly as Fit always has.
func (m *Model) applyDefaults() {
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
}

// Fit trains the ensemble.
func (m *Model) Fit(X [][]float64, y []float64) error {
	n := len(X)
	if n == 0 || n != len(y) {
		return fmt.Errorf("gbrt: fit on %d rows / %d targets", n, len(y))
	}
	m.applyDefaults()
	return m.fitBinned(NewPrebin(X, m.Bins), y)
}

// PrepareShared digests X into a Prebin (ml.SharedTrainer). The digest is
// valid for any model of this family with the same bin count.
func (m *Model) PrepareShared(X [][]float64) any {
	bins := m.Bins
	if bins <= 1 || bins > 256 {
		bins = 64
	}
	return NewPrebin(X, bins)
}

// FitShared trains from a Prebin previously prepared on exactly these rows
// (ml.SharedTrainer), skipping the per-fit binning pass. An incompatible
// or missing digest falls back to a plain Fit; either way the trained
// ensemble is bit-identical to Fit(X, y).
func (m *Model) FitShared(prep any, X [][]float64, y []float64) error {
	pb, ok := prep.(*Prebin)
	if !ok || pb == nil {
		return m.Fit(X, y)
	}
	n := len(X)
	if n == 0 || n != len(y) {
		return fmt.Errorf("gbrt: fit on %d rows / %d targets", n, len(y))
	}
	m.applyDefaults()
	if pb.n != n || pb.d != len(X[0]) || pb.bins != m.Bins {
		return m.Fit(X, y)
	}
	return m.fitBinned(pb, y)
}

// fitBinned is the boosting loop over an already-binned training set.
func (m *Model) fitBinned(pb *Prebin, y []float64) error {
	if m.MaxDepth > DepthLimit {
		return fmt.Errorf("gbrt: MaxDepth %d exceeds the depth limit %d", m.MaxDepth, DepthLimit)
	}
	n, d := pb.n, pb.d
	rng := rand.New(rand.NewSource(m.Seed))

	m.thresholds = pb.thresholds
	m.splitCount = make([]int, d)

	// Base prediction: target mean.
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
	m.eval = nil

	features := make([]int, d)
	for j := range features {
		features[j] = j
	}
	nFeat := int(float64(d) * m.FeatureFrac)
	if nFeat < 1 {
		nFeat = 1
	}
	b := &builder{
		m: m, pb: pb, residual: residual, rng: rng,
		features: features, nFeat: nFeat, dims: d,
		idx: make([]int, 0, n), part: make([]int, n),
		treeOut: make([]float64, n), stamp: make([]int32, n),
		res: make([]float64, n),
	}
	if b.shareable() {
		b.sumsArena = make([]float64, pb.off[d])
	}

	for t := 0; t < m.NumTrees; t++ {
		for i := range residual {
			residual[i] = y[i] - pred[i]
		}
		rows := b.idx[:0]
		if m.Subsample < 1 {
			for i := 0; i < n; i++ {
				if rng.Float64() < m.Subsample {
					rows = append(rows, i)
				}
			}
			if len(rows) < 2*m.MinSamplesLeaf {
				// Faithful to the original fallback (which ends holding only
				// the final row): changing it would shift trained ensembles.
				for i := 0; i < n; i++ {
					rows = append(rows[:0], i)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				rows = append(rows, i)
			}
		}
		b.idx = rows
		m.trees = append(m.trees, tree{})
		tr := &m.trees[len(m.trees)-1]
		b.tree = tr
		b.curStamp = int32(t + 1)
		b.grow(0, len(rows), 0, nil)
		// Update all predictions (not only the subsample), standard GBM.
		// Rows the tree was grown on already know their leaf (recorded as
		// the grower sealed each leaf's row segment) — same value, same
		// single addition as a tree walk; only rows outside the subsample
		// still walk the tree.
		if len(rows) == n {
			for i := 0; i < n; i++ {
				pred[i] += b.treeOut[i]
			}
		} else {
			for i := 0; i < n; i++ {
				if b.stamp[i] == b.curStamp {
					pred[i] += b.treeOut[i]
				} else {
					pred[i] += tr.predictBinned(pb, i)
				}
			}
		}
	}
	ev, err := Compile(m)
	if err != nil {
		return err
	}
	m.eval = ev
	return nil
}

// binOf returns v's bin in the sorted, distinct table th: the number of
// entries t with !(v <= t), so NaN bins to len(th). It counts every entry
// with independent compares, not branching on v: on the paper's tables (a
// few dozen thresholds at most) binning a row took 1.3-2.7x less time than
// a binary search, whose steps wait on each other. Tables hold at most 255
// entries.
func binOf(v float64, th []float64) uint8 {
	c := 0
	for _, t := range th {
		if !(v <= t) {
			c++
		}
	}
	return uint8(c)
}

// Count-histogram slots per depth: a node's own histograms (when it had to
// compute them fresh) and one per child (filled by histogram subtraction).
const (
	slotSelf = iota
	slotLeft
	slotRight
	slotsPerDepth
)

type builder struct {
	m        *Model
	pb       *Prebin
	residual []float64
	tree     *tree
	rng      *rand.Rand
	features []int
	nFeat    int
	dims     int

	// idx is the row-index arena: every subtree owns one contiguous
	// segment, reordered in place by the stable partition. part is the
	// partition scratch; cntStack holds the per-depth count histograms.
	idx      []int
	part     []int
	cntStack [][]uint32

	// treeOut[i] is the current tree's leaf value for row i, recorded when
	// the leaf owning i's segment is sealed; stamp[i] marks which tree
	// (1-based) last covered row i, so stale entries need no clearing.
	treeOut  []float64
	stamp    []int32
	curStamp int32

	// res is bestSplit's densely-packed copy of the segment's residuals:
	// gathered once per node so the split scan reads them sequentially
	// instead of through the row indices.
	res []float64

	// sumsArena holds every feature's per-bin residual sums for the node
	// being split (one per Prebin slot, feature j at off[j]) — filled by
	// one row-major pass over the segment instead of d per-feature gather
	// scans. Only allocated when all features are candidates at every node.
	sumsArena []float64
}

// shareable reports whether count histograms can be reused across the
// tree: with feature subsampling each node scans a different candidate
// set, so a parent's histograms do not cover a child's features.
func (b *builder) shareable() bool { return b.nFeat == b.dims }

// slot returns (allocating lazily) the count-histogram buffer for one
// depth level, one uint32 per Prebin slot.
func (b *builder) slot(depth, which int) []uint32 {
	k := depth*slotsPerDepth + which
	for len(b.cntStack) <= k {
		b.cntStack = append(b.cntStack, nil)
	}
	if b.cntStack[k] == nil {
		b.cntStack[k] = make([]uint32, b.pb.off[b.dims])
	}
	return b.cntStack[k]
}

// grow builds a subtree over idx[lo:hi] and returns its node index. cnts,
// when non-nil, holds this node's per-feature bin counts (derived at the
// parent by histogram subtraction).
func (b *builder) grow(lo, hi, depth int, cnts []uint32) int {
	seg := b.idx[lo:hi]
	sum := 0.0
	for _, i := range seg {
		sum += b.residual[i]
	}
	mean := sum / float64(len(seg))

	leaf := func() int {
		v := b.m.LearningRate * mean
		for _, i := range seg {
			b.treeOut[i] = v
			b.stamp[i] = b.curStamp
		}
		b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: v})
		return len(b.tree.nodes) - 1
	}
	if depth >= b.m.MaxDepth || len(seg) < 2*b.m.MinSamplesLeaf {
		return leaf()
	}
	feat, bin, gain, nodeCnts := b.bestSplit(lo, hi, sum, cnts, depth)
	if feat < 0 || gain <= 1e-12 {
		return leaf()
	}
	// Stable in-place partition over the shared scratch: left rows keep
	// their order, then right rows keep theirs — exactly the order the
	// original append-based partition produced.
	col := b.pb.col(feat)
	part := b.part[lo:hi]
	nl := 0
	for _, i := range seg {
		if col[i] <= bin {
			nl++
		}
	}
	nr := len(seg) - nl
	if nl < b.m.MinSamplesLeaf || nr < b.m.MinSamplesLeaf {
		return leaf()
	}
	li, ri := 0, nl
	for _, i := range seg {
		if col[i] <= bin {
			part[li] = i
			li++
		} else {
			part[ri] = i
			ri++
		}
	}
	copy(seg, part)

	b.m.splitCount[feat]++
	th := b.m.thresholds[feat]
	thresh := 0.0
	if int(bin) < len(th) {
		thresh = th[bin]
	} else if len(th) > 0 {
		thresh = th[len(th)-1]
	}
	b.tree.nodes = append(b.tree.nodes, node{feature: int32(feat), bin: bin, thresh: thresh})
	idx := len(b.tree.nodes) - 1
	leftC, rightC := b.childCounts(lo, lo+nl, hi, depth, nodeCnts)
	l := b.grow(lo, lo+nl, depth+1, leftC)
	r := b.grow(lo+nl, hi, depth+1, rightC)
	b.tree.nodes[idx].left = int32(l)
	b.tree.nodes[idx].right = int32(r)
	return idx
}

// bestSplit scans per-feature histograms for the largest SSE reduction.
// When cnts is non-nil the bin counts are already known (histogram
// subtraction at the parent) and the scan accumulates residual sums only;
// otherwise counts are tallied into this node's slot so its own children
// can subtract. Per-bin residual sums are always accumulated by direct
// scan in row order — identical float arithmetic to the original kernel.
func (b *builder) bestSplit(lo, hi int, total float64, cnts []uint32, depth int) (feat int, bin uint8, gain float64, nodeCnts []uint32) {
	seg := b.idx[lo:hi]
	nT := float64(len(seg))
	baseScore := total * total / nT
	feat = -1

	// Pack the segment's residuals once so the scans below stream them
	// sequentially (same addends, same order).
	res := b.res[:len(seg)]
	for s, i := range seg {
		res[s] = b.residual[i]
	}

	if b.shareable() {
		// All-features fast path: one row-major pass over the segment fills
		// every feature's per-bin residual sums (and, when not inherited
		// from the parent, counts) at once — each (feature, bin) cell still
		// receives exactly the original addends in segment row order, so
		// the float sums are bit-identical to the per-feature gather scans.
		d, off := b.dims, b.pb.off
		arena := b.sumsArena
		clear(arena)
		if cnts != nil {
			nodeCnts = cnts
			b.pb.sumRows(arena, seg, res)
		} else {
			// Tally this node's counts into its slot so children can
			// derive theirs by subtraction (childCounts).
			nodeCnts = b.slot(depth, slotSelf)
			clear(nodeCnts)
			b.pb.sumCountRows(arena, nodeCnts, seg, res)
		}
		for j := 0; j < d; j++ {
			nb := off[j+1] - off[j]
			if nb < 2 {
				continue
			}
			sums := arena[off[j]:]
			cj := nodeCnts[off[j]:]
			cl, sl := 0, 0.0
			for k := 0; k < nb-1; k++ {
				cl += int(cj[k])
				sl += sums[k]
				cr := len(seg) - cl
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
		return feat, bin, gain, nodeCnts
	}

	// Feature-subsampled path: per-node candidate draw, per-feature gather
	// scans (count histograms can't be shared across nodes here).
	cand := make([]int, b.nFeat)
	perm := b.rng.Perm(b.dims)
	copy(cand, perm[:b.nFeat])
	var sums [256]float64
	var localCnt [256]int
	for _, j := range cand {
		nb := len(b.m.thresholds[j]) + 1
		if nb < 2 {
			continue
		}
		col := b.pb.col(j)
		for k := 0; k < nb; k++ {
			sums[k] = 0
			localCnt[k] = 0
		}
		for s, i := range seg {
			bv := col[i]
			localCnt[bv]++
			sums[bv] += res[s]
		}
		cl, sl := 0, 0.0
		for k := 0; k < nb-1; k++ {
			cl += localCnt[k]
			sl += sums[k]
			cr := len(seg) - cl
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
	return feat, bin, gain, nodeCnts
}

// The row scans below walk the rows of seg two at a time. A row's slots
// sit at an unpredictable place in the slot matrix, so walking two rows at
// once keeps twice the loads in flight. Each slot still receives its
// addends in segment order: two rows share a slot only through the same
// feature, and the earlier row's addend goes first.

// sumRows adds res[s] to sums[k] for every slot k of row seg[s].
func (pb *Prebin) sumRows(sums []float64, seg []int, res []float64) {
	d, sb := pb.d, pb.slots
	s := 0
	for ; s+1 < len(seg); s += 2 {
		r0, r1 := res[s], res[s+1]
		row0 := sb[seg[s]*d : seg[s]*d+d]
		row1 := sb[seg[s+1]*d : seg[s+1]*d+d]
		row1 = row1[:len(row0)]
		for j, k := range row0 {
			sums[k] += r0
			sums[row1[j]] += r1
		}
	}
	for ; s < len(seg); s++ {
		r := res[s]
		for _, k := range sb[seg[s]*d : seg[s]*d+d] {
			sums[k] += r
		}
	}
}

// sumCountRows is sumRows that also counts every slot it adds to in cnt.
func (pb *Prebin) sumCountRows(sums []float64, cnt []uint32, seg []int, res []float64) {
	d, sb := pb.d, pb.slots
	s := 0
	for ; s+1 < len(seg); s += 2 {
		r0, r1 := res[s], res[s+1]
		row0 := sb[seg[s]*d : seg[s]*d+d]
		row1 := sb[seg[s+1]*d : seg[s+1]*d+d]
		row1 = row1[:len(row0)]
		for j, k0 := range row0 {
			k1 := row1[j]
			cnt[k0]++
			sums[k0] += r0
			cnt[k1]++
			sums[k1] += r1
		}
	}
	for ; s < len(seg); s++ {
		r := res[s]
		for _, k := range sb[seg[s]*d : seg[s]*d+d] {
			cnt[k]++
			sums[k] += r
		}
	}
}

// countRows counts every slot of the rows in seg into cnt.
func (pb *Prebin) countRows(cnt []uint32, seg []int) {
	d, sb := pb.d, pb.slots
	s := 0
	for ; s+1 < len(seg); s += 2 {
		row0 := sb[seg[s]*d : seg[s]*d+d]
		row1 := sb[seg[s+1]*d : seg[s+1]*d+d]
		row1 = row1[:len(row0)]
		for j, k := range row0 {
			cnt[k]++
			cnt[row1[j]]++
		}
	}
	for ; s < len(seg); s++ {
		for _, k := range sb[seg[s]*d : seg[s]*d+d] {
			cnt[k]++
		}
	}
}

// childCounts derives the children's per-feature bin counts with exact
// integer histogram subtraction: the cheaper child is counted directly,
// its sibling obtained as node minus child. Only counts are derived this
// way — residual sums stay direct scans, because float subtraction would
// not reproduce the original accumulation order bit-for-bit.
func (b *builder) childCounts(lo, mid, hi, depth int, nodeCnts []uint32) (leftC, rightC []uint32) {
	if nodeCnts == nil || !b.shareable() {
		return nil, nil
	}
	nl, nr := mid-lo, hi-mid
	willSplit := func(sz int) bool { return depth+1 < b.m.MaxDepth && sz >= 2*b.m.MinSamplesLeaf }
	ls, rs := willSplit(nl), willSplit(nr)
	// A derivation touches each histogram slot ~3 times (zero + subtract),
	// ~3*off[d]/d per feature, and saves the derived child's d count
	// increments per row — profitable only past this many rows. Counts are
	// exact integers, so the threshold moves time, never bytes.
	overhead := 3 * b.pb.off[b.dims] / b.dims
	countInto := func(which, s, e int) []uint32 {
		c := b.slot(depth+1, which)
		clear(c)
		b.pb.countRows(c, b.idx[s:e])
		return c
	}
	derive := func(which int, direct []uint32) []uint32 {
		c := b.slot(depth+1, which)
		for k := range c {
			c[k] = nodeCnts[k] - direct[k]
		}
		return c
	}
	switch {
	case ls && rs:
		// Derive the larger child, count the smaller directly (its own
		// scan then skips the increments, so the direct count is ~free).
		if nl <= nr {
			if nr > overhead {
				leftC = countInto(slotLeft, lo, mid)
				rightC = derive(slotRight, leftC)
			}
		} else if nl > overhead {
			rightC = countInto(slotRight, mid, hi)
			leftC = derive(slotLeft, rightC)
		}
	case ls:
		// Only one child splits: counting the sibling is pure overhead on
		// top of the subtraction, so the bar is higher.
		if nl > nr+overhead {
			rightC = countInto(slotRight, mid, hi)
			leftC = derive(slotLeft, rightC)
			rightC = nil
		}
	case rs:
		if nr > nl+overhead {
			leftC = countInto(slotLeft, lo, mid)
			rightC = derive(slotRight, leftC)
			leftC = nil
		}
	}
	return leftC, rightC
}

// predictBinned evaluates one tree on row i of the binned matrix.
func (t *tree) predictBinned(pb *Prebin, i int) float64 {
	nodes := t.nodes
	k := 0
	for {
		nd := &nodes[k]
		if nd.feature < 0 {
			return nd.value
		}
		if pb.binned[int(nd.feature)*pb.n+i] <= nd.bin {
			k = int(nd.left)
		} else {
			k = int(nd.right)
		}
	}
}

// Predict evaluates the ensemble on raw (unbinned) features.
func (m *Model) Predict(x []float64) float64 {
	var out [1]float64
	m.PredictBatchInto(out[:], [][]float64{x})
	return out[0]
}

// PredictBatchInto writes the estimate for X[i] into out[i] without
// allocating (ml.BatchPredictor). Values are identical to Predict.
func (m *Model) PredictBatchInto(out []float64, X [][]float64) {
	if m.eval == nil {
		panic("gbrt: predict on a model that was neither fitted nor loaded")
	}
	m.eval.PredictInto([][]float64{out}, X, nil, nil)
}

// FeatureImportance returns the per-feature split counts normalized to sum
// to 1 — the paper's importance measure ("the number of times that a
// feature is used as a split point", averaged over the ensemble).
func (m *Model) FeatureImportance() []float64 {
	out := make([]float64, len(m.splitCount))
	total := 0
	for _, c := range m.splitCount {
		total += c
	}
	if total == 0 {
		return out
	}
	for j, c := range m.splitCount {
		out[j] = float64(c) / float64(total)
	}
	return out
}

// NumSplits returns the raw split count per feature.
func (m *Model) NumSplits() []int {
	return append([]int(nil), m.splitCount...)
}
