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
// Frozen reference: the per-type helpers and feature closures extraction ran
// before each op's aggregates were computed in one pass. Each walked its
// neighborhood again per resource type (and per feature), so they are slow,
// but they define the bits aggregate() must reproduce.

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
		dn := e.Graph.OfOp[d]
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
		un := e.Graph.OfOp[u]
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
			dn := e.Graph.OfOp[d2]
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
			un := e.Graph.OfOp[u2]
			if un == nil || un == c.node {
				continue
			}
			dt2 := float64(e.Sched.DeltaTcs(mid, u2))
			sum += float64(un.Res().ByType(t)) / (dt1 + dt2)
		}
	}
	return sum
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

// referenceRegistry rebuilds the full 302-entry registry with the frozen
// closures for the Resource, #Resource/ΔTcs and Operator Type categories,
// which read the aggregates in production; the other categories never read
// them and register as they do in production.
func referenceRegistry() []spec {
	saved := registry
	defer func() { registry = saved }()
	registry = nil
	registerBitwidth()
	registerInterconnect()
	registerResourceRef()
	registerTiming()
	registerResourceDTRef()
	registerOpTypeRef()
	registerGlobal()
	return registry
}

func registerResourceRef() {
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		tn := hls.ResourceTypeNames[t]
		reg := func(name string, f func(*Extractor, *opCtx) float64) {
			register(fmt.Sprintf("res_%s_%s", tn, name), CatResource, f)
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

func registerResourceDTRef() {
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		tn := hls.ResourceTypeNames[t]
		reg := func(name string, f func(*Extractor, *opCtx) float64) {
			register(fmt.Sprintf("dt_%s_%s", tn, name), CatResourceDT, f)
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

func registerOpTypeRef() {
	for _, k := range ir.AllKinds() {
		k := k
		register(fmt.Sprintf("type_is_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			if c.op.Kind == k {
				return 1
			}
			return 0
		})
	}
	for _, k := range ir.AllKinds() {
		k := k
		register(fmt.Sprintf("type_nbr1_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			return countKind(c.n1both, k)
		})
	}
	for _, k := range ir.AllKinds() {
		k := k
		register(fmt.Sprintf("type_nbr2_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			return countKind(c.n2both, k)
		})
	}
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

func checkAggregates(t *testing.T, design string, ex *Extractor, m *ir.Module, ref []spec) {
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
