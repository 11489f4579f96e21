package gbrt

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// DepthLimit is the deepest tree the package fits, loads or evaluates. The
// evaluator stores every tree complete to its ensemble's depth D, with 2^D
// leaf slots, so the limit also bounds what a loaded artifact can make the
// compiler allocate.
const DepthLimit = 12

// maxTable is the most distinct split thresholds one feature may have:
// bin(x) ranges over 0..len(table) and must fit a uint8.
const maxTable = 255

// maxFeature is the largest split feature index a split slot can hold.
const maxFeature = math.MaxUint16

// chunkRows is how many rows are binned before the trees walk them: the
// chunk's bytes and one tree's slots then both stay in L1.
const chunkRows = 64

// split is one split slot of a compiled tree: go right when the row's bin
// of feature f is greater than b.
type split struct {
	f uint16
	b uint8
}

// compiled is one ensemble laid out as complete depth-D binary trees in
// heap order: tree t owns splits[t*(2^D-1):] and leaves[t*2^D:].
type compiled struct {
	base   float64
	depth  int
	ntrees int
	splits []split
	leaves []float64
}

// Evaluator is one or more ensembles compiled over shared threshold
// tables. A row is binned once, against each used feature's sorted
// distinct split thresholds, and every tree of every ensemble then walks
// the binned row. It is immutable, so concurrent callers are safe; their
// scratch is pooled.
type Evaluator struct {
	width  int       // binned row length: the largest split feature + 1
	feats  []int     // features some split reads, ascending
	toff   []int     // feats[i]'s table is tab[toff[i]:toff[i+1]]
	tab    []float64 // the tables, concatenated
	models []compiled
}

// Compile lays out the given fitted or loaded models for evaluation over
// one set of threshold tables: for each feature, the sorted distinct
// thresholds of every split in the models. It fails if a feature has more
// than 255 of them, a split threshold is NaN, a split feature does not fit
// a uint16 or a tree breaks tree.depth's rules. Fit, on fewer than 65,536
// columns, produces none of these, and neither do the three targets of one
// core.Train, which share one binning.
func Compile(models ...*Model) (*Evaluator, error) {
	perFeat := map[int][]float64{}
	for _, m := range models {
		for ti := range m.trees {
			for _, nd := range m.trees[ti].nodes {
				if nd.feature < 0 {
					continue
				}
				if nd.feature > maxFeature {
					return nil, fmt.Errorf("gbrt: tree %d splits on feature %d, above the limit %d", ti, nd.feature, maxFeature)
				}
				if math.IsNaN(nd.thresh) {
					return nil, fmt.Errorf("gbrt: tree %d has a NaN split threshold", ti)
				}
				perFeat[int(nd.feature)] = append(perFeat[int(nd.feature)], nd.thresh)
			}
		}
	}
	e := &Evaluator{toff: []int{0}}
	for f := range perFeat {
		e.feats = append(e.feats, f)
	}
	sort.Ints(e.feats)
	tables := make(map[int][]float64, len(e.feats))
	for _, f := range e.feats {
		ts := perFeat[f]
		sort.Float64s(ts)
		table := ts[:1]
		for _, t := range ts[1:] {
			// Distinct by ==, so -0 and +0 share one entry: x <= -0 and
			// x <= +0 agree for every x.
			if t != table[len(table)-1] {
				table = append(table, t)
			}
		}
		if len(table) > maxTable {
			return nil, fmt.Errorf("gbrt: feature %d has %d distinct split thresholds, above the limit %d", f, len(table), maxTable)
		}
		tables[f] = table
		e.tab = append(e.tab, table...)
		e.toff = append(e.toff, len(e.tab))
		e.width = f + 1
	}
	for _, m := range models {
		cm, err := compileModel(m, tables)
		if err != nil {
			return nil, err
		}
		e.models = append(e.models, cm)
	}
	return e, nil
}

// compileModel lays out one ensemble at its deepest tree's depth D. A leaf
// above depth D is copied into every leaf slot below it, and the split
// slots under it are padding: both of their subtrees end in the same
// value, so where they send a row does not matter.
func compileModel(m *Model, tables map[int][]float64) (compiled, error) {
	cm := compiled{base: m.base, ntrees: len(m.trees)}
	for ti := range m.trees {
		d, err := m.trees[ti].depth()
		if err != nil {
			return compiled{}, fmt.Errorf("gbrt: tree %d: %w", ti, err)
		}
		cm.depth = max(cm.depth, d)
	}
	nSplit, nLeaf := 1<<cm.depth-1, 1<<cm.depth
	cm.splits = make([]split, cm.ntrees*nSplit)
	cm.leaves = make([]float64, cm.ntrees*nLeaf)
	for ti := range m.trees {
		nodes := m.trees[ti].nodes
		sp := cm.splits[ti*nSplit : (ti+1)*nSplit]
		lv := cm.leaves[ti*nLeaf : (ti+1)*nLeaf]
		var fill func(i, k, level int)
		fill = func(i, k, level int) {
			nd := &nodes[i]
			if level == cm.depth {
				lv[k-nSplit] = nd.value
				return
			}
			if nd.feature < 0 {
				fill(i, 2*k+1, level+1)
				fill(i, 2*k+2, level+1)
				return
			}
			table := tables[int(nd.feature)]
			// The threshold's own index: binOf finds the first entry t
			// with thresh <= t, and thresh is in the table.
			sp[k] = split{f: uint16(nd.feature), b: binOf(nd.thresh, table)}
			fill(int(nd.left), 2*k+1, level+1)
			fill(int(nd.right), 2*k+2, level+1)
		}
		fill(0, 0, 0)
	}
	return cm, nil
}

// depth returns the depth of the tree's deepest reachable node (a lone
// leaf has depth 0). It requires every split's children to sit at larger
// indices, which the builder always does (a split is appended before its
// subtrees) and which makes every node sequence acyclic; it fails on a
// reachable node deeper than DepthLimit.
func (t *tree) depth() (int, error) {
	nodes := t.nodes
	if len(nodes) == 0 {
		return 0, fmt.Errorf("empty tree")
	}
	// level[i] is 1 + the depth of node i, 0 while i is unreachable.
	level := make([]int, len(nodes))
	level[0] = 1
	deepest := 0
	for i, nd := range nodes {
		if level[i] == 0 {
			continue
		}
		deepest = max(deepest, level[i]-1)
		if nd.feature < 0 {
			continue
		}
		for _, c := range [2]int32{nd.left, nd.right} {
			if int(c) <= i || int(c) >= len(nodes) {
				return 0, fmt.Errorf("node %d has child %d, not after it in the tree", i, c)
			}
			if level[i] > DepthLimit {
				return 0, fmt.Errorf("node %d is deeper than the depth limit %d", c, DepthLimit)
			}
			level[c] = max(level[c], level[i]+1)
		}
	}
	return deepest, nil
}

// binPool holds binned-row scratch: chunkRows rows of an evaluator's width.
var binPool = sync.Pool{New: func() any { return new([]uint8) }}

// PredictInto writes compiled model m's estimate for X[i] into outs[m][i],
// for every model in Compile order. When mean is non-empty each feature is
// first standardized as (v-mean[j])/std[j], the expression ml.Scaler
// applies, in the same pass that bins it, so a caller with several models
// scales and bins every row once. Each row receives the ensemble's base
// plus exactly one leaf per tree, in tree order, so the sums are bit-for-
// bit those of walking the original trees with x <= thresh. Steady-state
// calls do not allocate.
func (e *Evaluator) PredictInto(outs [][]float64, X [][]float64, mean, std []float64) {
	w := e.width
	bp := binPool.Get().(*[]uint8)
	if cap(*bp) < chunkRows*w {
		*bp = make([]uint8, chunkRows*w)
	}
	bins := (*bp)[:chunkRows*w]
	for at := 0; at < len(X); at += chunkRows {
		rows := X[at:min(at+chunkRows, len(X))]
		for i, x := range rows {
			e.binRow(bins[i*w:(i+1)*w], x, mean, std)
		}
		for mi := range e.models {
			e.models[mi].eval(outs[mi][at:at+len(rows)], bins, w)
		}
	}
	binPool.Put(bp)
}

// binRow writes bin(x_j) for every used feature j into dst[j]: the count of
// table entries t with !(x_j <= t). Since the table is sorted and
// distinct, x <= t_b holds exactly when bin(x) <= b, for every x including
// ±Inf and ±0; NaN bins to len(table) and goes right, as x <= t sends it.
func (e *Evaluator) binRow(dst []uint8, x, mean, std []float64) {
	scaled := len(mean) > 0
	for i, j := range e.feats {
		v := x[j]
		if scaled {
			v = (v - mean[j]) / std[j]
		}
		dst[j] = binOf(v, e.tab[e.toff[i]:e.toff[i+1]])
	}
}

// eval adds up the ensemble for len(out) rows binned w bytes apart in bins.
// Trees are walked 4 rows at a time, so the rows' independent descents
// overlap; each descent is k = 2k+1+(bin > b) for D levels, with no
// data-dependent branch.
func (cm *compiled) eval(out []float64, bins []uint8, w int) {
	for i := range out {
		out[i] = cm.base
	}
	D, nSplit, nLeaf := cm.depth, 1<<cm.depth-1, 1<<cm.depth
	n := len(out)
	for t := 0; t < cm.ntrees; t++ {
		sp := cm.splits[t*nSplit : (t+1)*nSplit]
		lv := cm.leaves[t*nLeaf : (t+1)*nLeaf]
		i := 0
		for ; i+4 <= n; i += 4 {
			r0 := bins[i*w : (i+1)*w]
			r1 := bins[(i+1)*w : (i+2)*w]
			r2 := bins[(i+2)*w : (i+3)*w]
			r3 := bins[(i+3)*w : (i+4)*w]
			k0, k1, k2, k3 := 0, 0, 0, 0
			for l := 0; l < D; l++ {
				s0, s1, s2, s3 := sp[k0], sp[k1], sp[k2], sp[k3]
				k0 = 2*k0 + 1 + right(r0[s0.f], s0.b)
				k1 = 2*k1 + 1 + right(r1[s1.f], s1.b)
				k2 = 2*k2 + 1 + right(r2[s2.f], s2.b)
				k3 = 2*k3 + 1 + right(r3[s3.f], s3.b)
			}
			out[i] += lv[k0-nSplit]
			out[i+1] += lv[k1-nSplit]
			out[i+2] += lv[k2-nSplit]
			out[i+3] += lv[k3-nSplit]
		}
		for ; i < n; i++ {
			r := bins[i*w : (i+1)*w]
			k := 0
			for l := 0; l < D; l++ {
				s := sp[k]
				k = 2*k + 1 + right(r[s.f], s.b)
			}
			out[i] += lv[k-nSplit]
		}
	}
}

// right is 1 when bin > b and 0 otherwise, computed without a branch: the
// difference b-bin is negative exactly when bin > b.
func right(bin, b uint8) int {
	return int(uint(int(b)-int(bin)) >> (bits.UintSize - 1))
}
