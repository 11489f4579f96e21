// Package features implements the paper's feature extraction (Sec. III-B,
// Table II): 302 features per IR operation in seven categories — Bitwidth,
// Interconnection, Resource (per LUT/FF/DSP/BRAM), Timing, #Resource/ΔTcs,
// Operator Type and Global Information. Features are computed on the merged
// dependency graph (shared functional units count once), use schedule
// control states for the ΔTcs terms, and include the two-hop-neighborhood
// variants the paper found most influential.
package features

import (
	"fmt"

	"repro/internal/fpga"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
)

// Category labels one of the paper's seven feature categories.
type Category int

// The seven categories of Table II.
const (
	CatBitwidth Category = iota
	CatInterconnect
	CatResource
	CatTiming
	CatResourceDT
	CatOpType
	CatGlobal

	categoryCount
)

// CategoryCount is the number of feature categories.
const CategoryCount = int(categoryCount)

func (c Category) String() string {
	switch c {
	case CatBitwidth:
		return "Bitwidth"
	case CatInterconnect:
		return "Interconnection"
	case CatResource:
		return "Resource"
	case CatTiming:
		return "Timing"
	case CatResourceDT:
		return "#Resource/dTcs"
	case CatOpType:
		return "Operator Type"
	case CatGlobal:
		return "Global Information"
	}
	return "?"
}

// NumFeatures is the paper's feature-vector length.
const NumFeatures = 302

// spec is one registered feature: its name and category. The values are
// written by Extractor.fill, in the order init registers the names.
type spec struct {
	name string
	cat  Category
}

var registry []spec

func register(cat Category, names ...string) {
	for _, n := range names {
		registry = append(registry, spec{name: n, cat: cat})
	}
}

// Names returns the 302 feature names in vector order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.name
	}
	return out
}

// Categories returns the category of each feature in vector order.
func Categories() []Category {
	out := make([]Category, len(registry))
	for i, s := range registry {
		out[i] = s.cat
	}
	return out
}

// Extractor computes feature vectors for one implemented design. It
// computes each live function's Global block once, each op's shared
// neighborhood and ΔTcs aggregates once per op (fill only reads them), and
// reuses per-op scratch state (neighborhood buffers, BFS marks, the
// aggregates) across Vector calls so extraction allocates only the output
// vector.
//
// An Extractor is NOT safe for concurrent use: the scratch state makes
// Vector/VectorInto calls mutually exclusive. Fork gives another goroutine
// an Extractor of its own over the same design: the per-design state
// (function blocks, graph, schedule) is built once and only read, and
// each fork has its own scratch. The dataset builder extracts each module
// on one goroutine; PredictModule forks one Extractor per span of ops.
type Extractor struct {
	Mod   *ir.Module
	Sched *hls.Schedule
	Bind  *hls.Binding
	Graph *graph.Graph
	Dev   *fpga.Device

	funcInfo map[*ir.Function]*funcInfo
	topInfo  *funcInfo
	emptyFI  *funcInfo
	nLive    int

	// Scratch reused by context(): one opCtx plus BFS generation marks
	// indexed by graph-node ID.
	opScratch opCtx
	seen      []int
	gen       int
}

type funcInfo struct {
	res      hls.Resources
	estClock float64
	latency  int64
	memWords float64
	memBanks float64
	memBits  float64
	memPrims float64
	mux      hls.MuxStats

	// global is the Global Information block of every op in the function:
	// it depends only on the function, the top function and the module.
	global [globalWidth]float64
}

// globalWidth is the number of Global Information features.
const globalWidth = 35

// NewExtractor prepares feature extraction from the HLS artifacts of a
// design. The graph must be the merged dependency graph of the same module
// and binding.
func NewExtractor(m *ir.Module, s *hls.Schedule, b *hls.Binding, g *graph.Graph, dev *fpga.Device) *Extractor {
	e := &Extractor{
		Mod:      m,
		Sched:    s,
		Bind:     b,
		Graph:    g,
		Dev:      dev,
		funcInfo: make(map[*ir.Function]*funcInfo),
	}
	for _, f := range m.LiveFuncs() {
		fi := &funcInfo{res: b.FuncBoundResources(f), mux: b.FuncMuxStats(f)}
		worst := 0.0
		for _, o := range f.Ops {
			if d := s.Slots.Get(o).FinishDelay; d > worst {
				worst = d
			}
		}
		fi.estClock = worst + s.Clock.UncertaintyNS
		if fs := s.Funcs[f]; fs != nil {
			fi.latency = fs.LatencyCycles
		}
		for _, a := range f.Arrays {
			fi.memWords += float64(a.Words)
			fi.memBanks += float64(a.Banks)
			fi.memBits += float64(a.Bits)
			fi.memPrims += float64(a.Primitives())
		}
		e.funcInfo[f] = fi
		if f.IsTop {
			e.topInfo = fi
		}
	}
	if e.topInfo == nil {
		e.topInfo = &funcInfo{}
	}
	e.emptyFI = &funcInfo{}
	e.nLive = len(m.LiveFuncs())
	// Every block reads the top function's fields, so the blocks are filled
	// once topInfo is final.
	for _, fi := range e.funcInfo {
		e.fillGlobal(fi)
	}
	e.fillGlobal(e.emptyFI)
	e.seen = make([]int, len(g.Nodes))
	return e
}

// Fork returns an Extractor over the same design that shares e's
// read-only per-design state and has scratch of its own, so e and the fork
// may extract on two goroutines at once. Both give every op the same
// vector. Fork reads none of e's scratch, so it may be called while e
// extracts.
func (e *Extractor) Fork() *Extractor {
	return &Extractor{
		Mod:      e.Mod,
		Sched:    e.Sched,
		Bind:     e.Bind,
		Graph:    e.Graph,
		Dev:      e.Dev,
		funcInfo: e.funcInfo,
		topInfo:  e.topInfo,
		emptyFI:  e.emptyFI,
		nLive:    e.nLive,
		seen:     make([]int, len(e.Graph.Nodes)),
	}
}

// opCtx caches the per-op intermediates shared by many features: the
// neighborhoods, their edge statistics and the aggregates over them. It
// lives in the Extractor's scratch and is overwritten by the next Vector
// call; evaluators must not retain any of it.
type opCtx struct {
	op   *ir.Op
	node *graph.Node
	fi   *funcInfo

	n1both []*graph.Node // one-hop neighborhood (both directions)
	n1pred []*graph.Node // one-hop, predecessor side (== distinct preds)
	n1succ []*graph.Node // one-hop, successor side (== distinct succs)
	n2pred []*graph.Node // second ring, predecessor side
	n2succ []*graph.Node // second ring, successor side
	n2both []*graph.Node // second ring, both directions

	// Wire-weight aggregates of all edges incident to the two-hop
	// neighborhood, matching graph.Node.EdgeStatsK(2).
	edge2Total, edge2Count, edge2Max int

	char hls.OpCharacter

	agg aggregates
}

// resAgg is the per-resource-type sum and max of node usage over one
// neighborhood, accumulated in neighborhood order.
type resAgg struct {
	sum, max [hls.ResourceTypeCount]float64
}

// aggregates holds every per-op term that several features share, each
// computed once by context(). Each sum adds the same terms in the same node
// or edge order as a per-type walk would, so the features keep their exact
// bits; the kind counts are small integers, exact in float64.
type aggregates struct {
	// Resource usage over each neighborhood of opCtx.
	n1pred, n1succ, n1both, n2pred, n2succ, n2both resAgg

	// #Resource/ΔTcs over the direct producers and consumers (sum and max
	// per type), and through the second ring (sum per type), dividing by
	// the schedule distance accumulated over the hops.
	dtPredSum, dtPredMax   [hls.ResourceTypeCount]float64
	dtSuccSum, dtSuccMax   [hls.ResourceTypeCount]float64
	dtPred2Sum, dtSucc2Sum [hls.ResourceTypeCount]float64

	// Op-kind counts of n1both and n2both, indexed by OpKind.Index.
	kind1, kind2 [ir.KindCount]float64
}

func (e *Extractor) context(op *ir.Op) *opCtx {
	node := e.Graph.OfOp.Get(op)
	if node == nil {
		panic(fmt.Sprintf("features: op %s missing from graph", op.Name))
	}
	c := &e.opScratch
	c.op = op
	c.node = node
	c.fi = e.funcInfo[op.Func]
	c.char = hls.Characterize(op.Kind, op.Bitwidth)
	if c.fi == nil {
		c.fi = e.emptyFI
	}
	c.n1pred, c.n2pred = e.walk2(node, graph.DirPred, c.n1pred, c.n2pred)
	c.n1succ, c.n2succ = e.walk2(node, graph.DirSucc, c.n1succ, c.n2succ)
	// The DirBoth walk runs last so its generation marks are still live for
	// the edge aggregation below.
	c.n1both, c.n2both = e.walk2(node, graph.DirBoth, c.n1both, c.n2both)
	c.edge2Total, c.edge2Count, c.edge2Max = e.edgeStats2(c)
	e.aggregate(c)
	return c
}

// aggregate fills c.agg from the neighborhoods context() just walked and
// from the op's producers and consumers.
func (e *Extractor) aggregate(c *opCtx) {
	a := &c.agg
	*a = aggregates{}
	a.n1pred.add(c.n1pred)
	a.n1succ.add(c.n1succ)
	a.n1both.add(c.n1both)
	a.n2pred.add(c.n2pred)
	a.n2succ.add(c.n2succ)
	a.n2both.add(c.n2both)
	countKinds(&a.kind1, c.n1both)
	countKinds(&a.kind2, c.n2both)
	e.addDT(c)
}

func (a *resAgg) add(nodes []*graph.Node) {
	for _, n := range nodes {
		for t, v := range resVec(n.Res()) {
			a.sum[t] += v
			if v > a.max[t] {
				a.max[t] = v
			}
		}
	}
}

// resVec is r's counts as float64 in resource-type order, the order of
// hls.Resources.ByType: LUT, FF, DSP, BRAM.
func resVec(r hls.Resources) [hls.ResourceTypeCount]float64 {
	return [...]float64{float64(r.LUT), float64(r.FF), float64(r.DSP), float64(r.BRAM)}
}

func countKinds(dst *[ir.KindCount]float64, nodes []*graph.Node) {
	for _, x := range nodes {
		if x.Kind.Valid() {
			dst[x.Kind.Index()]++
		}
	}
}

// addDT adds the #Resource/ΔTcs terms to c.agg in one walk of the op's
// operands and one of its users, all four resource types together. A
// neighbor whose node is c.node itself (a shared unit feeding itself) is
// skipped; the middle op of a two-hop path never is.
func (e *Extractor) addDT(c *opCtx) {
	a := &c.agg
	for _, edge := range c.op.Operands {
		mid := edge.Def
		dt1 := float64(e.Sched.DeltaTcs(mid, c.op))
		if dn := e.Graph.OfOp.Get(mid); dn != nil && dn != c.node {
			addPerType(&a.dtPredSum, &a.dtPredMax, resVec(dn.Res()), dt1)
		}
		for _, edge2 := range mid.Operands {
			d2 := edge2.Def
			if dn := e.Graph.OfOp.Get(d2); dn != nil && dn != c.node {
				addPerType(&a.dtPred2Sum, nil, resVec(dn.Res()), dt1+float64(e.Sched.DeltaTcs(d2, mid)))
			}
		}
	}
	for _, mid := range c.op.Users() {
		dt1 := float64(e.Sched.DeltaTcs(c.op, mid))
		if un := e.Graph.OfOp.Get(mid); un != nil && un != c.node {
			addPerType(&a.dtSuccSum, &a.dtSuccMax, resVec(un.Res()), dt1)
		}
		for _, u2 := range mid.Users() {
			if un := e.Graph.OfOp.Get(u2); un != nil && un != c.node {
				addPerType(&a.dtSucc2Sum, nil, resVec(un.Res()), dt1+float64(e.Sched.DeltaTcs(mid, u2)))
			}
		}
	}
}

// addPerType adds one neighbor's resource/ΔTcs term, per type, to sum and,
// when max is not nil, to the running max.
func addPerType(sum, max *[hls.ResourceTypeCount]float64, r [hls.ResourceTypeCount]float64, dt float64) {
	for t := range sum {
		v := r[t] / dt
		sum[t] += v
		if max != nil && v > max[t] {
			max[t] = v
		}
	}
}

// walk2 is a two-hop BFS from n collecting the one-hop neighborhood and the
// second ring into the reused hop1/hop2 scratch slices, preserving
// graph.Node.NeighborsK discovery order (per frontier node: In edges, then
// Out edges). Visited marks use a fresh generation of e.seen, so no map or
// per-call allocation is needed.
func (e *Extractor) walk2(n *graph.Node, dir int, hop1, hop2 []*graph.Node) (h1, h2 []*graph.Node) {
	e.gen++
	g := e.gen
	e.seen[n.ID] = g
	hop1, hop2 = hop1[:0], hop2[:0]
	if dir == graph.DirPred || dir == graph.DirBoth {
		for _, ed := range n.In {
			if e.seen[ed.From.ID] != g {
				e.seen[ed.From.ID] = g
				hop1 = append(hop1, ed.From)
			}
		}
	}
	if dir == graph.DirSucc || dir == graph.DirBoth {
		for _, ed := range n.Out {
			if e.seen[ed.To.ID] != g {
				e.seen[ed.To.ID] = g
				hop1 = append(hop1, ed.To)
			}
		}
	}
	for _, cur := range hop1 {
		if dir == graph.DirPred || dir == graph.DirBoth {
			for _, ed := range cur.In {
				if e.seen[ed.From.ID] != g {
					e.seen[ed.From.ID] = g
					hop2 = append(hop2, ed.From)
				}
			}
		}
		if dir == graph.DirSucc || dir == graph.DirBoth {
			for _, ed := range cur.Out {
				if e.seen[ed.To.ID] != g {
					e.seen[ed.To.ID] = g
					hop2 = append(hop2, ed.To)
				}
			}
		}
	}
	return hop1, hop2
}

// edgeStats2 aggregates the wire weights of all edges incident to the
// two-hop neighborhood of c.node, equal to graph.Node.EdgeStatsK(2) but
// allocation-free: it reuses the generation marks left by the DirBoth walk
// (which flag exactly {node} ∪ n1both ∪ n2both) and dedups each edge by
// counting it at its To endpoint when that endpoint is in the set, and at
// its From endpoint otherwise.
func (e *Extractor) edgeStats2(c *opCtx) (total, count, max int) {
	g := e.gen
	add := func(w int) {
		total += w
		count++
		if w > max {
			max = w
		}
	}
	scan := func(x *graph.Node) {
		for _, ed := range x.In { // x == ed.To, in the set: canonical endpoint
			add(ed.Wires)
		}
		for _, ed := range x.Out { // counted at To's In scan unless To is outside
			if e.seen[ed.To.ID] != g {
				add(ed.Wires)
			}
		}
	}
	scan(c.node)
	for _, x := range c.n1both {
		scan(x)
	}
	for _, x := range c.n2both {
		scan(x)
	}
	return total, count, max
}

// Vector computes the 302-entry feature vector of one operation.
func (e *Extractor) Vector(op *ir.Op) []float64 {
	return e.VectorInto(make([]float64, NumFeatures), op)
}

// VectorInto computes the feature vector of op into dst, which must have
// length NumFeatures, and returns dst. It is the allocation-free variant of
// Vector used by the dataset builder, which extracts thousands of ops per
// design into one preallocated backing array, and by PredictModule, which
// reuses one chunk of rows.
func (e *Extractor) VectorInto(dst []float64, op *ir.Op) []float64 {
	if len(dst) != NumFeatures {
		panic(fmt.Sprintf("features: VectorInto dst length %d, want %d", len(dst), NumFeatures))
	}
	e.fill(dst, e.context(op))
	return dst
}

// ---------------------------------------------------------------------------
// Shared helpers.

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func countPorts(nodes []*graph.Node) float64 {
	n := 0.0
	for _, x := range nodes {
		if x.IsPort() {
			n++
		}
	}
	return n
}
