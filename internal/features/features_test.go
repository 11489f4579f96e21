package features

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/fpga"
	"repro/internal/graph"
	"repro/internal/hls"
	"repro/internal/ir"
)

func TestRegistryLayout(t *testing.T) {
	names := Names()
	cats := Categories()
	if len(names) != NumFeatures || len(cats) != NumFeatures {
		t.Fatalf("registry size %d/%d, want %d", len(names), len(cats), NumFeatures)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	// All seven categories are populated.
	var counts [CategoryCount]int
	for _, c := range cats {
		counts[c]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("category %v has no features", Category(c))
		}
	}
	if counts[CatBitwidth] != 1 {
		t.Errorf("bitwidth category has %d features", counts[CatBitwidth])
	}
	// Operator-type features: one-hot + 1-hop counts + 2-hop counts.
	if counts[CatOpType] != 3*ir.KindCount {
		t.Errorf("op-type category has %d features, want %d", counts[CatOpType], 3*ir.KindCount)
	}
	// Resource and #Resource/dTcs scale with the four resource types.
	if counts[CatResource]%hls.ResourceTypeCount != 0 {
		t.Errorf("resource category (%d) not divisible by %d", counts[CatResource], hls.ResourceTypeCount)
	}
	if counts[CatResourceDT]%hls.ResourceTypeCount != 0 {
		t.Errorf("dTcs category (%d) not divisible by %d", counts[CatResourceDT], hls.ResourceTypeCount)
	}
}

func TestCategoryString(t *testing.T) {
	for c := 0; c < CategoryCount; c++ {
		if Category(c).String() == "?" {
			t.Errorf("category %d has no name", c)
		}
	}
	if Category(99).String() != "?" {
		t.Error("unknown category must print ?")
	}
}

// extractorFor builds a small design and its extractor.
func extractorFor(t *testing.T) (*Extractor, *ir.Module, map[string]*ir.Op) {
	t.Helper()
	m := ir.NewModule("m")
	f := m.NewFunction("top")
	b := ir.NewBuilder(f).At("t.cpp", 1)
	p := b.Port("p", 32)
	a := b.Array("mem", 128, 16, 4)
	mul := b.Op(ir.KindMul, 16, b.OpBits(ir.KindTrunc, 16, p, 16), b.Const(16))
	ld := b.Load(a, nil)
	add := b.Op(ir.KindAdd, 16, mul, ld)
	b.Ret(add)
	return extractorOf(t, m), m, map[string]*ir.Op{"p": p, "mul": mul, "ld": ld, "add": add}
}

func idx(t *testing.T, name string) int {
	t.Helper()
	for i, n := range Names() {
		if n == name {
			return i
		}
	}
	t.Fatalf("feature %q not found", name)
	return -1
}

func TestVectorBasics(t *testing.T) {
	ex, m, ops := extractorFor(t)
	v := ex.Vector(ops["add"])
	if len(v) != NumFeatures {
		t.Fatalf("vector length %d", len(v))
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("feature %q is not finite: %v", Names()[i], x)
		}
	}
	if v[idx(t, "bitwidth")] != 16 {
		t.Errorf("bitwidth = %v", v[idx(t, "bitwidth")])
	}
	if v[idx(t, "type_is_add")] != 1 {
		t.Error("one-hot add not set")
	}
	if v[idx(t, "type_is_mul")] != 0 {
		t.Error("one-hot mul set on add op")
	}
	_ = m
}

func TestVectorInterconnect(t *testing.T) {
	ex, _, ops := extractorFor(t)
	v := ex.Vector(ops["add"])
	if got := v[idx(t, "ic_fanin")]; got != 32 {
		t.Errorf("ic_fanin = %v, want 32 (two 16-bit operands)", got)
	}
	if got := v[idx(t, "ic_num_preds")]; got != 2 {
		t.Errorf("ic_num_preds = %v", got)
	}
}

func TestVectorResourceFeatures(t *testing.T) {
	ex, _, ops := extractorFor(t)
	v := ex.Vector(ops["mul"])
	dsp := v[idx(t, "res_DSP_usage")]
	if dsp == 0 {
		t.Error("mul node reports no DSP usage")
	}
	util := v[idx(t, "res_DSP_util_dev")]
	if math.Abs(util-dsp/220) > 1e-12 {
		t.Errorf("DSP util_dev = %v, want usage/220", util)
	}
}

func TestVectorGlobalFeatures(t *testing.T) {
	ex, _, ops := extractorFor(t)
	v := ex.Vector(ops["ld"])
	if got := v[idx(t, "glob_target_period_ns")]; got != 10 {
		t.Errorf("target period = %v", got)
	}
	if got := v[idx(t, "glob_mem_fop_words")]; got != 128 {
		t.Errorf("mem words = %v", got)
	}
	if got := v[idx(t, "glob_mem_fop_banks")]; got != 4 {
		t.Errorf("mem banks = %v", got)
	}
	if got := v[idx(t, "glob_mem_fop_primitives")]; got != 128*16*4 {
		t.Errorf("mem primitives = %v", got)
	}
	if got := v[idx(t, "glob_num_live_funcs")]; got != 1 {
		t.Errorf("live funcs = %v", got)
	}
}

func TestVectorDeterministic(t *testing.T) {
	ex, m, _ := extractorFor(t)
	for _, o := range m.AllOps() {
		v1 := ex.Vector(o)
		v2 := ex.Vector(o)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("feature %q unstable on op %v", Names()[i], o)
			}
		}
	}
}

func TestVectorTimingFeatures(t *testing.T) {
	ex, _, ops := extractorFor(t)
	v := ex.Vector(ops["mul"])
	if got := v[idx(t, "timing_latency_cycles")]; got != 3 {
		t.Errorf("mul latency feature = %v, want 3", got)
	}
	if got := v[idx(t, "timing_delay_ns")]; got <= 0 {
		t.Errorf("delay feature = %v", got)
	}
}

func TestDTcsFeaturesReactToSlack(t *testing.T) {
	// Two consumers of a value: one immediate, one delayed behind a divide.
	// The immediate consumer's succ-side pressure on the producer is higher
	// (smaller dTcs), mirroring the paper's S1/S2 example.
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	src := b.Op(ir.KindAdd, 16, p, p)
	imm := b.Op(ir.KindSub, 16, src, p)
	div := b.Op(ir.KindDiv, 16, p, p)
	late := b.Op(ir.KindSub, 16, src, div)
	_ = imm
	_ = late
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	bind := hls.BindModule(s)
	g := graph.Build(m, bind)
	ex := NewExtractor(m, s, bind, g, fpga.XC7Z020())
	// src's dt_LUT_succ_sum: imm contributes res/1-ish, late contributes
	// res/dt with dt >> 1, so the sum must be dominated by but larger than
	// the max term.
	v := ex.Vector(src)
	sum := v[idx(t, "dt_LUT_succ_sum")]
	max := v[idx(t, "dt_LUT_succ_max")]
	if sum <= 0 || max <= 0 {
		t.Fatalf("dt features empty: sum=%v max=%v", sum, max)
	}
	if sum <= max {
		t.Errorf("sum %v must exceed single max term %v with two consumers", sum, max)
	}
}

// TestScratchNeighborhoodsMatchGraphQueries pins the scratch-based BFS of
// context() to the graph package's reference queries: the cached
// neighborhoods, rings and edge aggregates must equal what NeighborsK,
// Preds/Succs and EdgeStatsK compute with their per-call maps. This is the
// guard that the allocation-free rewrite did not change a single feature
// value.
func TestScratchNeighborhoodsMatchGraphQueries(t *testing.T) {
	ex, m, _ := extractorFor(t)
	ring2 := func(n *graph.Node, dir int) []*graph.Node {
		one := n.NeighborsK(1, dir)
		inOne := make(map[*graph.Node]bool, len(one))
		for _, x := range one {
			inOne[x] = true
		}
		var out []*graph.Node
		for _, x := range n.NeighborsK(2, dir) {
			if !inOne[x] {
				out = append(out, x)
			}
		}
		return out
	}
	sameNodes := func(tag string, op *ir.Op, got, want []*graph.Node) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("op %s %s: %d nodes, want %d", op.Name, tag, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("op %s %s: node %d is #%d, want #%d (order must match NeighborsK discovery)",
					op.Name, tag, i, got[i].ID, want[i].ID)
			}
		}
	}
	for _, op := range m.AllOps() {
		c := ex.context(op)
		n := c.node
		sameNodes("n1pred", op, c.n1pred, n.Preds())
		sameNodes("n1succ", op, c.n1succ, n.Succs())
		sameNodes("n1both", op, c.n1both, n.NeighborsK(1, graph.DirBoth))
		sameNodes("n2pred", op, c.n2pred, ring2(n, graph.DirPred))
		sameNodes("n2succ", op, c.n2succ, ring2(n, graph.DirSucc))
		sameNodes("n2both", op, c.n2both, ring2(n, graph.DirBoth))
		wt, wc, wm := n.EdgeStatsK(2)
		if c.edge2Total != wt || c.edge2Count != wc || c.edge2Max != wm {
			t.Fatalf("op %s edge stats (%d,%d,%d), want (%d,%d,%d)",
				op.Name, c.edge2Total, c.edge2Count, c.edge2Max, wt, wc, wm)
		}
	}
}

// ---------------------------------------------------------------------------
// Frozen reference: the per-type helpers and per-feature closures extraction
// ran before each op's aggregates were computed in one pass and its columns
// written by one fill. Each walks its neighborhood again per resource type
// (and per feature), so they are slow, but they define the bits aggregate()
// and fill must reproduce.

func sumRes(nodes []*graph.Node, t int) float64 {
	s := 0.0
	for _, n := range nodes {
		s += float64(n.Res().ByType(t))
	}
	return s
}

func maxRes(nodes []*graph.Node, t int) float64 {
	m := 0.0
	for _, n := range nodes {
		if v := float64(n.Res().ByType(t)); v > m {
			m = v
		}
	}
	return m
}

// dtPred sums resource/ΔTcs over the op's direct producers.
func (e *Extractor) dtPred(c *opCtx, t int) (sum, max float64) {
	for _, edge := range c.op.Operands {
		d := edge.Def
		dn := e.Graph.OfOp.Get(d)
		if dn == nil || dn == c.node {
			continue
		}
		dt := float64(e.Sched.DeltaTcs(d, c.op))
		v := float64(dn.Res().ByType(t)) / dt
		sum += v
		if v > max {
			max = v
		}
	}
	return sum, max
}

// dtSucc sums resource/ΔTcs over the op's direct consumers.
func (e *Extractor) dtSucc(c *opCtx, t int) (sum, max float64) {
	for _, u := range c.op.Users() {
		un := e.Graph.OfOp.Get(u)
		if un == nil || un == c.node {
			continue
		}
		dt := float64(e.Sched.DeltaTcs(c.op, u))
		v := float64(un.Res().ByType(t)) / dt
		sum += v
		if v > max {
			max = v
		}
	}
	return sum, max
}

// dtPred2 extends the term through the second predecessor ring, dividing by
// the accumulated schedule distance over the two hops.
func (e *Extractor) dtPred2(c *opCtx, t int) float64 {
	sum := 0.0
	for _, edge := range c.op.Operands {
		mid := edge.Def
		dt1 := float64(e.Sched.DeltaTcs(mid, c.op))
		for _, edge2 := range mid.Operands {
			d2 := edge2.Def
			dn := e.Graph.OfOp.Get(d2)
			if dn == nil || dn == c.node {
				continue
			}
			dt2 := float64(e.Sched.DeltaTcs(d2, mid))
			sum += float64(dn.Res().ByType(t)) / (dt1 + dt2)
		}
	}
	return sum
}

// dtSucc2 is the successor-side two-hop variant.
func (e *Extractor) dtSucc2(c *opCtx, t int) float64 {
	sum := 0.0
	for _, mid := range c.op.Users() {
		dt1 := float64(e.Sched.DeltaTcs(c.op, mid))
		for _, u2 := range mid.Users() {
			un := e.Graph.OfOp.Get(u2)
			if un == nil || un == c.node {
				continue
			}
			dt2 := float64(e.Sched.DeltaTcs(mid, u2))
			sum += float64(un.Res().ByType(t)) / (dt1 + dt2)
		}
	}
	return sum
}

// maxEdge returns the largest wire weight among the node's direct
// connections and that edge's share of the node's fan-in and fan-out — the
// paper's "max number of wires among all connections" features.
func maxEdge(n *graph.Node) (wires int, fracIn, fracOut float64) {
	for _, e := range n.In {
		if e.Wires > wires {
			wires = e.Wires
		}
	}
	for _, e := range n.Out {
		if e.Wires > wires {
			wires = e.Wires
		}
	}
	if fi := n.FanIn(); fi > 0 {
		fracIn = float64(wires) / float64(fi)
	}
	if fo := n.FanOut(); fo > 0 {
		fracOut = float64(wires) / float64(fo)
	}
	return wires, fracIn, fracOut
}

// TestMaxEdge checks the reference maxEdge on a hand-computed diamond:
// p feeds a over 32 wires and c over 8, and both feed the sink d.
func TestMaxEdge(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 32)
	a := b.Op(ir.KindNot, 32, p)
	c := b.OpBits(ir.KindBitSel, 8, p, 8)
	d := b.Op(ir.KindAdd, 32, a, c)
	g := graph.Build(m, nil)
	w, fi, fo := maxEdge(g.OfOp.Get(d))
	if w != 32 {
		t.Errorf("max edge = %d", w)
	}
	if fi != 32.0/40.0 {
		t.Errorf("frac of fanin = %v", fi)
	}
	if fo != 0 {
		t.Errorf("frac of fanout on sink node = %v", fo)
	}
	w, fi, fo = maxEdge(g.OfOp.Get(p))
	if w != 32 || fi != 0 || fo != 32.0/40.0 {
		t.Errorf("source node: max edge %d, frac of fanin %v, frac of fanout %v", w, fi, fo)
	}
}

func countKind(nodes []*graph.Node, k ir.OpKind) float64 {
	n := 0.0
	for _, x := range nodes {
		if x.Kind == k {
			n++
		}
	}
	return n
}

// refFeature is one feature of the frozen reference: its name, category
// and evaluator.
type refFeature struct {
	name string
	cat  Category
	eval func(*Extractor, *opCtx) float64
}

type refRegistry []refFeature

func (r *refRegistry) add(name string, cat Category, eval func(*Extractor, *opCtx) float64) {
	*r = append(*r, refFeature{name: name, cat: cat, eval: eval})
}

// referenceRegistry is the full 302-entry reference in the layout of Table
// II: one frozen closure per feature, each computing its value on its own
// from opCtx, the graph and the per-type helpers above.
func referenceRegistry() []refFeature {
	var r refRegistry
	r.bitwidth()
	r.interconnect()
	r.resource()
	r.timing()
	r.resourceDT()
	r.opType()
	r.global()
	return r
}

func (e *Extractor) devTotal(t int) float64 {
	return float64(e.Dev.Totals.ByType(t))
}

func (e *Extractor) funcTotal(c *opCtx, t int) float64 {
	return float64(c.fi.res.ByType(t))
}

func (r *refRegistry) bitwidth() {
	r.add("bitwidth", CatBitwidth, func(e *Extractor, c *opCtx) float64 {
		return float64(c.op.Bitwidth)
	})
}

func (r *refRegistry) interconnect() {
	reg := func(name string, f func(*Extractor, *opCtx) float64) {
		r.add("ic_"+name, CatInterconnect, f)
	}
	reg("fanin", func(e *Extractor, c *opCtx) float64 { return float64(c.node.FanIn()) })
	reg("fanout", func(e *Extractor, c *opCtx) float64 { return float64(c.node.FanOut()) })
	reg("fan_sum", func(e *Extractor, c *opCtx) float64 {
		return float64(c.node.FanIn() + c.node.FanOut())
	})
	reg("num_preds", func(e *Extractor, c *opCtx) float64 { return float64(len(c.node.In)) })
	reg("num_succs", func(e *Extractor, c *opCtx) float64 { return float64(len(c.node.Out)) })
	reg("num_neighbors", func(e *Extractor, c *opCtx) float64 {
		return float64(len(c.node.In) + len(c.node.Out))
	})
	reg("max_edge_wires", func(e *Extractor, c *opCtx) float64 {
		w, _, _ := maxEdge(c.node)
		return float64(w)
	})
	reg("max_edge_frac_fanin", func(e *Extractor, c *opCtx) float64 {
		_, fi, _ := maxEdge(c.node)
		return fi
	})
	reg("max_edge_frac_fanout", func(e *Extractor, c *opCtx) float64 {
		_, _, fo := maxEdge(c.node)
		return fo
	})
	reg("avg_in_edge_wires", func(e *Extractor, c *opCtx) float64 {
		return safeDiv(float64(c.node.FanIn()), float64(len(c.node.In)))
	})
	reg("avg_out_edge_wires", func(e *Extractor, c *opCtx) float64 {
		return safeDiv(float64(c.node.FanOut()), float64(len(c.node.Out)))
	})
	reg("port_neighbors_1hop", func(e *Extractor, c *opCtx) float64 {
		return countPorts(c.n1both)
	})
	reg("num_preds_2hop", func(e *Extractor, c *opCtx) float64 { return float64(len(c.n2pred)) })
	reg("num_succs_2hop", func(e *Extractor, c *opCtx) float64 { return float64(len(c.n2succ)) })
	reg("num_neighbors_2hop", func(e *Extractor, c *opCtx) float64 { return float64(len(c.n2both)) })
	reg("edge_total_2hop", func(e *Extractor, c *opCtx) float64 {
		return float64(c.edge2Total)
	})
	reg("edge_count_2hop", func(e *Extractor, c *opCtx) float64 {
		return float64(c.edge2Count)
	})
	reg("edge_max_2hop", func(e *Extractor, c *opCtx) float64 {
		return float64(c.edge2Max)
	})
	reg("edge_max_frac_2hop", func(e *Extractor, c *opCtx) float64 {
		return safeDiv(float64(c.edge2Max), float64(c.edge2Total))
	})
	reg("fanin_2hop", func(e *Extractor, c *opCtx) float64 {
		s := 0.0
		for _, n := range c.n2pred {
			s += float64(n.FanIn())
		}
		return s
	})
	reg("fanout_2hop", func(e *Extractor, c *opCtx) float64 {
		s := 0.0
		for _, n := range c.n2succ {
			s += float64(n.FanOut())
		}
		return s
	})
	reg("port_neighbors_2hop", func(e *Extractor, c *opCtx) float64 {
		return countPorts(c.n2both)
	})
}

func (r *refRegistry) resource() {
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		tn := hls.ResourceTypeNames[t]
		reg := func(name string, f func(*Extractor, *opCtx) float64) {
			r.add(fmt.Sprintf("res_%s_%s", tn, name), CatResource, f)
		}
		reg("usage", func(e *Extractor, c *opCtx) float64 {
			return float64(c.node.Res().ByType(t))
		})
		reg("util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(float64(c.node.Res().ByType(t)), e.devTotal(t))
		})
		reg("util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(float64(c.node.Res().ByType(t)), e.funcTotal(c, t))
		})
		reg("pred_total", func(e *Extractor, c *opCtx) float64 {
			return sumRes(c.n1pred, t)
		})
		reg("succ_total", func(e *Extractor, c *opCtx) float64 {
			return sumRes(c.n1succ, t)
		})
		reg("predsucc_sum", func(e *Extractor, c *opCtx) float64 {
			return sumRes(c.n1pred, t) + sumRes(c.n1succ, t)
		})
		reg("pred_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n1pred, t), e.devTotal(t))
		})
		reg("succ_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n1succ, t), e.devTotal(t))
		})
		reg("pred_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n1pred, t), e.funcTotal(c, t))
		})
		reg("succ_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n1succ, t), e.funcTotal(c, t))
		})
		reg("max_nbr", func(e *Extractor, c *opCtx) float64 {
			return maxRes(c.n1both, t)
		})
		reg("max_nbr_frac", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(maxRes(c.n1both, t), sumRes(c.n1both, t))
		})
		reg("pred2_total", func(e *Extractor, c *opCtx) float64 {
			return sumRes(c.n2pred, t)
		})
		reg("succ2_total", func(e *Extractor, c *opCtx) float64 {
			return sumRes(c.n2succ, t)
		})
		reg("sum2", func(e *Extractor, c *opCtx) float64 {
			return sumRes(c.n2pred, t) + sumRes(c.n2succ, t)
		})
		reg("pred2_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n2pred, t), e.devTotal(t))
		})
		reg("succ2_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n2succ, t), e.devTotal(t))
		})
		reg("pred2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n2pred, t), e.funcTotal(c, t))
		})
		reg("succ2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n2succ, t), e.funcTotal(c, t))
		})
		reg("max_nbr2", func(e *Extractor, c *opCtx) float64 {
			return maxRes(c.n2both, t)
		})
		reg("max_nbr2_frac", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(maxRes(c.n2both, t), sumRes(c.n2both, t))
		})
		reg("both2_total", func(e *Extractor, c *opCtx) float64 {
			return sumRes(c.n2both, t)
		})
		reg("both2_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n2both, t), e.devTotal(t))
		})
		reg("both2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(sumRes(c.n2both, t), e.funcTotal(c, t))
		})
	}
}

func (r *refRegistry) timing() {
	r.add("timing_delay_ns", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return c.char.DelayNS
	})
	r.add("timing_latency_cycles", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return float64(c.char.Latency)
	})
	r.add("timing_start_state", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return float64(e.Sched.Slots.Get(c.op).Start)
	})
	r.add("timing_finish_delay_ns", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return e.Sched.Slots.Get(c.op).FinishDelay
	})
}

func (r *refRegistry) resourceDT() {
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		tn := hls.ResourceTypeNames[t]
		reg := func(name string, f func(*Extractor, *opCtx) float64) {
			r.add(fmt.Sprintf("dt_%s_%s", tn, name), CatResourceDT, f)
		}
		reg("pred_sum", func(e *Extractor, c *opCtx) float64 {
			s, _ := e.dtPred(c, t)
			return s
		})
		reg("succ_sum", func(e *Extractor, c *opCtx) float64 {
			s, _ := e.dtSucc(c, t)
			return s
		})
		reg("sum", func(e *Extractor, c *opCtx) float64 {
			p, _ := e.dtPred(c, t)
			s, _ := e.dtSucc(c, t)
			return p + s
		})
		reg("pred_max", func(e *Extractor, c *opCtx) float64 {
			_, m := e.dtPred(c, t)
			return m
		})
		reg("succ_max", func(e *Extractor, c *opCtx) float64 {
			_, m := e.dtSucc(c, t)
			return m
		})
		reg("pred_util_func", func(e *Extractor, c *opCtx) float64 {
			s, _ := e.dtPred(c, t)
			return safeDiv(s, e.funcTotal(c, t))
		})
		reg("succ_util_func", func(e *Extractor, c *opCtx) float64 {
			s, _ := e.dtSucc(c, t)
			return safeDiv(s, e.funcTotal(c, t))
		})
		reg("pred2_sum", func(e *Extractor, c *opCtx) float64 {
			return e.dtPred2(c, t)
		})
		reg("succ2_sum", func(e *Extractor, c *opCtx) float64 {
			return e.dtSucc2(c, t)
		})
		reg("sum2", func(e *Extractor, c *opCtx) float64 {
			return e.dtPred2(c, t) + e.dtSucc2(c, t)
		})
		reg("pred2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(e.dtPred2(c, t), e.funcTotal(c, t))
		})
		reg("succ2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(e.dtSucc2(c, t), e.funcTotal(c, t))
		})
	}
}

func (r *refRegistry) opType() {
	for _, k := range ir.AllKinds() {
		k := k
		r.add(fmt.Sprintf("type_is_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			if c.op.Kind == k {
				return 1
			}
			return 0
		})
	}
	for _, k := range ir.AllKinds() {
		k := k
		r.add(fmt.Sprintf("type_nbr1_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			return countKind(c.n1both, k)
		})
	}
	for _, k := range ir.AllKinds() {
		k := k
		r.add(fmt.Sprintf("type_nbr2_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			return countKind(c.n2both, k)
		})
	}
}

func (r *refRegistry) global() {
	reg := func(name string, f func(*Extractor, *opCtx) float64) {
		r.add("glob_"+name, CatGlobal, f)
	}
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		reg("top_"+hls.ResourceTypeNames[t], func(e *Extractor, c *opCtx) float64 {
			return float64(e.topInfo.res.ByType(t))
		})
	}
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		reg("fop_"+hls.ResourceTypeNames[t], func(e *Extractor, c *opCtx) float64 {
			return float64(c.fi.res.ByType(t))
		})
	}
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		reg("fop_frac_"+hls.ResourceTypeNames[t], func(e *Extractor, c *opCtx) float64 {
			return safeDiv(float64(c.fi.res.ByType(t)), float64(e.topInfo.res.ByType(t)))
		})
	}
	reg("target_period_ns", func(e *Extractor, c *opCtx) float64 { return e.Sched.Clock.PeriodNS })
	reg("clock_uncertainty_ns", func(e *Extractor, c *opCtx) float64 { return e.Sched.Clock.UncertaintyNS })
	reg("est_clock_top_ns", func(e *Extractor, c *opCtx) float64 { return e.topInfo.estClock })
	reg("est_clock_fop_ns", func(e *Extractor, c *opCtx) float64 { return c.fi.estClock })
	reg("latency_top_cycles", func(e *Extractor, c *opCtx) float64 { return float64(e.topInfo.latency) })
	reg("latency_fop_cycles", func(e *Extractor, c *opCtx) float64 { return float64(c.fi.latency) })
	memFields := []struct {
		name string
		get  func(*funcInfo) float64
	}{
		{"words", func(fi *funcInfo) float64 { return fi.memWords }},
		{"banks", func(fi *funcInfo) float64 { return fi.memBanks }},
		{"bits", func(fi *funcInfo) float64 { return fi.memBits }},
		{"primitives", func(fi *funcInfo) float64 { return fi.memPrims }},
	}
	for _, mf := range memFields {
		mf := mf
		reg("mem_fop_"+mf.name, func(e *Extractor, c *opCtx) float64 { return mf.get(c.fi) })
	}
	for _, mf := range memFields {
		mf := mf
		reg("mem_top_"+mf.name, func(e *Extractor, c *opCtx) float64 { return mf.get(e.topInfo) })
	}
	muxFields := []struct {
		name string
		get  func(hls.MuxStats) float64
	}{
		{"count", func(m hls.MuxStats) float64 { return float64(m.Count) }},
		{"lut", func(m hls.MuxStats) float64 { return float64(m.Res.LUT) }},
		{"avg_inputs", func(m hls.MuxStats) float64 { return m.AvgInputs }},
		{"avg_width", func(m hls.MuxStats) float64 { return m.AvgWidth }},
	}
	for _, mf := range muxFields {
		mf := mf
		reg("mux_fop_"+mf.name, func(e *Extractor, c *opCtx) float64 { return mf.get(c.fi.mux) })
	}
	for _, mf := range muxFields {
		mf := mf
		reg("mux_top_"+mf.name, func(e *Extractor, c *opCtx) float64 { return mf.get(e.topInfo.mux) })
	}
	reg("num_live_funcs", func(e *Extractor, c *opCtx) float64 {
		return float64(e.nLive)
	})
}

// aggregateDesigns are the modules the aggregate equivalence test runs on:
// every catalog design with its published directives and the three Face
// Detection variants the design-query benchmark asks about.
func aggregateDesigns() map[string]*ir.Module {
	mods := map[string]*ir.Module{
		"face_detection.without_directives": bench.FaceDetection(bench.WithoutDirectives()),
		"face_detection.not_inline":         bench.FaceDetection(bench.NotInline()),
		"face_detection.replication":        bench.FaceDetection(bench.Replication()),
	}
	for name, gen := range bench.Catalog() {
		mods[name] = gen(bench.WithDirectives())
	}
	return mods
}

// extractorOf runs the HLS front half on m and returns its extractor.
func extractorOf(tb testing.TB, m *ir.Module) *Extractor {
	tb.Helper()
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		tb.Fatal(err)
	}
	bind := hls.BindModule(s)
	return NewExtractor(m, s, bind, graph.Build(m, bind), fpga.XC7Z020())
}

// TestAggregatesMatchReference pins the one-pass aggregates to the frozen
// per-type helpers, bit for bit, field by field, and every entry of the
// vector to the frozen closures, on every op of the fixture, every catalog
// design and the Face Detection variants.
func TestAggregatesMatchReference(t *testing.T) {
	ref := referenceRegistry()
	if len(ref) != NumFeatures {
		t.Fatalf("reference registry has %d features, want %d", len(ref), NumFeatures)
	}
	for i, s := range ref {
		if s.name != registry[i].name || s.cat != registry[i].cat {
			t.Fatalf("feature %d: reference %q (%v), registry %q (%v)", i, s.name, s.cat, registry[i].name, registry[i].cat)
		}
	}
	fixture, m, _ := extractorFor(t)
	checkAggregates(t, "fixture", fixture, m, ref)
	for name, m := range aggregateDesigns() {
		checkAggregates(t, name, extractorOf(t, m), m, ref)
	}
}

func checkAggregates(t *testing.T, design string, ex *Extractor, m *ir.Module, ref []refFeature) {
	t.Helper()
	same := func(op *ir.Op, got, want float64, field string, args ...any) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Helper()
			t.Fatalf("%s op %s %s = %v, reference %v", design, op.Name, fmt.Sprintf(field, args...), got, want)
		}
	}
	dst := make([]float64, NumFeatures)
	for _, op := range m.AllOps() {
		ex.VectorInto(dst, op)
		c := &ex.opScratch // still op's context
		a := &c.agg
		for _, rs := range []struct {
			name  string
			nodes []*graph.Node
			agg   *resAgg
		}{
			{"n1pred", c.n1pred, &a.n1pred}, {"n1succ", c.n1succ, &a.n1succ},
			{"n1both", c.n1both, &a.n1both}, {"n2pred", c.n2pred, &a.n2pred},
			{"n2succ", c.n2succ, &a.n2succ}, {"n2both", c.n2both, &a.n2both},
		} {
			for ty := 0; ty < hls.ResourceTypeCount; ty++ {
				same(op, rs.agg.sum[ty], sumRes(rs.nodes, ty), "%s.sum[%d]", rs.name, ty)
				same(op, rs.agg.max[ty], maxRes(rs.nodes, ty), "%s.max[%d]", rs.name, ty)
			}
		}
		for ty := 0; ty < hls.ResourceTypeCount; ty++ {
			ps, pm := ex.dtPred(c, ty)
			ss, sm := ex.dtSucc(c, ty)
			same(op, a.dtPredSum[ty], ps, "dtPredSum[%d]", ty)
			same(op, a.dtPredMax[ty], pm, "dtPredMax[%d]", ty)
			same(op, a.dtSuccSum[ty], ss, "dtSuccSum[%d]", ty)
			same(op, a.dtSuccMax[ty], sm, "dtSuccMax[%d]", ty)
			same(op, a.dtPred2Sum[ty], ex.dtPred2(c, ty), "dtPred2Sum[%d]", ty)
			same(op, a.dtSucc2Sum[ty], ex.dtSucc2(c, ty), "dtSucc2Sum[%d]", ty)
		}
		for _, k := range ir.AllKinds() {
			same(op, a.kind1[k.Index()], countKind(c.n1both, k), "kind1[%v]", k)
			same(op, a.kind2[k.Index()], countKind(c.n2both, k), "kind2[%v]", k)
		}
		for i, s := range ref {
			same(op, dst[i], s.eval(ex, c), "feature %s", s.name)
		}
	}
}

func TestVectorIntoMatchesVector(t *testing.T) {
	ex, m, _ := extractorFor(t)
	dst := make([]float64, NumFeatures)
	for _, op := range m.AllOps() {
		want := ex.Vector(op)
		got := ex.VectorInto(dst, op)
		if &got[0] != &dst[0] {
			t.Fatal("VectorInto did not fill the caller's buffer")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("op %s feature %q: VectorInto %v, Vector %v", op.Name, Names()[i], got[i], want[i])
			}
		}
	}
}

// TestForkExtractsConcurrently extracts one design on an Extractor and on
// its Fork at the same time, each walking all ops: every vector must keep
// the bits of a sequential extraction. Run it under -race: a scratch the
// two shared would show here.
func TestForkExtractsConcurrently(t *testing.T) {
	m := bench.FaceDetection(bench.NotInline())
	ex := extractorOf(t, m)
	ops := m.AllOps()
	want := make([][]float64, len(ops))
	for i, o := range ops {
		want[i] = ex.Vector(o)
	}
	errs := make(chan error, 2)
	walk := func(e *Extractor, reverse bool) {
		dst := make([]float64, NumFeatures)
		for k := range ops {
			i := k
			if reverse {
				i = len(ops) - 1 - k
			}
			e.VectorInto(dst, ops[i])
			for j, v := range dst {
				if math.Float64bits(v) != math.Float64bits(want[i][j]) {
					errs <- fmt.Errorf("op %s feature %q: %v, sequential %v", ops[i].Name, Names()[j], v, want[i][j])
					return
				}
			}
		}
		errs <- nil
	}
	go walk(ex, false)
	go walk(ex.Fork(), true)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestVectorIntoRejectsWrongLength(t *testing.T) {
	ex, m, _ := extractorFor(t)
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	ex.VectorInto(make([]float64, NumFeatures-1), m.AllOps()[0])
}

// TestVectorIntoAllocationFree is the allocation regression guard of the
// parallelism PR: once the extractor's scratch has warmed up, extracting a
// feature vector into a caller-provided buffer must not allocate at all.
func TestVectorIntoAllocationFree(t *testing.T) {
	ex, m, _ := extractorFor(t)
	ops := m.AllOps()
	dst := make([]float64, NumFeatures)
	for _, op := range ops { // warm the scratch to steady-state capacity
		ex.VectorInto(dst, op)
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, op := range ops {
			ex.VectorInto(dst, op)
		}
	})
	if avg != 0 {
		t.Fatalf("VectorInto allocates %v objects per extraction sweep, want 0", avg)
	}
}

func BenchmarkVectorInto(b *testing.B) {
	ex, m, _ := benchExtractor(b)
	ops := m.AllOps()
	dst := make([]float64, NumFeatures)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.VectorInto(dst, ops[i%len(ops)])
	}
}

func BenchmarkVector(b *testing.B) {
	ex, m, _ := benchExtractor(b)
	ops := m.AllOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Vector(ops[i%len(ops)])
	}
}

// benchExtractor mirrors extractorFor for benchmarks.
func benchExtractor(b *testing.B) (*Extractor, *ir.Module, map[string]*ir.Op) {
	b.Helper()
	m := ir.NewModule("m")
	f := m.NewFunction("top")
	bld := ir.NewBuilder(f).At("t.cpp", 1)
	p := bld.Port("p", 32)
	a := bld.Array("mem", 128, 16, 4)
	mul := bld.Op(ir.KindMul, 16, bld.OpBits(ir.KindTrunc, 16, p, 16), bld.Const(16))
	ld := bld.Load(a, nil)
	add := bld.Op(ir.KindAdd, 16, mul, ld)
	bld.Ret(add)
	return extractorOf(b, m), m, map[string]*ir.Op{"p": p, "mul": mul, "ld": ld, "add": add}
}

// BenchmarkExtractDesign extracts every op of Face Detection, the paper's
// case study (5,276 ops with its published directives), as one query does:
// one NewExtractor, then VectorInto per op into one reused row. It reports
// the cost per row; the per-op fixture of BenchmarkVectorInto hides the
// neighborhood sizes of a real design.
func BenchmarkExtractDesign(b *testing.B) {
	m := bench.FaceDetection(bench.WithDirectives())
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		b.Fatal(err)
	}
	bind := hls.BindModule(s)
	g := graph.Build(m, bind)
	dev := fpga.XC7Z020()
	ops := m.AllOps()
	dst := make([]float64, NumFeatures)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExtractor(m, s, bind, g, dev)
		for _, op := range ops {
			ex.VectorInto(dst, op)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N) * float64(len(ops))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
}
