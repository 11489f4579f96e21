package features

import (
	"fmt"

	"repro/internal/hls"
	"repro/internal/ir"
)

// The feature registry is populated once at init time. The layout follows
// Table II of the paper; the total is asserted to be exactly NumFeatures
// (302) so any edit that changes the count fails loudly. fill writes the
// values in the same order, one block per category.
func init() {
	register(CatBitwidth, "bitwidth")
	register(CatInterconnect,
		"ic_fanin", "ic_fanout", "ic_fan_sum",
		"ic_num_preds", "ic_num_succs", "ic_num_neighbors",
		"ic_max_edge_wires", "ic_max_edge_frac_fanin", "ic_max_edge_frac_fanout",
		"ic_avg_in_edge_wires", "ic_avg_out_edge_wires",
		"ic_port_neighbors_1hop",
		"ic_num_preds_2hop", "ic_num_succs_2hop", "ic_num_neighbors_2hop",
		"ic_edge_total_2hop", "ic_edge_count_2hop", "ic_edge_max_2hop", "ic_edge_max_frac_2hop",
		"ic_fanin_2hop", "ic_fanout_2hop", "ic_port_neighbors_2hop")
	registerPerType(CatResource, "res",
		"usage", "util_dev", "util_func",
		"pred_total", "succ_total", "predsucc_sum",
		"pred_util_dev", "succ_util_dev", "pred_util_func", "succ_util_func",
		"max_nbr", "max_nbr_frac",
		"pred2_total", "succ2_total", "sum2",
		"pred2_util_dev", "succ2_util_dev", "pred2_util_func", "succ2_util_func",
		"max_nbr2", "max_nbr2_frac",
		"both2_total", "both2_util_dev", "both2_util_func")
	register(CatTiming,
		"timing_delay_ns", "timing_latency_cycles", "timing_start_state", "timing_finish_delay_ns")
	registerPerType(CatResourceDT, "dt",
		"pred_sum", "succ_sum", "sum", "pred_max", "succ_max",
		"pred_util_func", "succ_util_func",
		"pred2_sum", "succ2_sum", "sum2", "pred2_util_func", "succ2_util_func")
	for _, prefix := range []string{"type_is_", "type_nbr1_", "type_nbr2_"} {
		for _, k := range ir.AllKinds() {
			register(CatOpType, prefix+k.String())
		}
	}
	for _, group := range []string{"glob_top_", "glob_fop_", "glob_fop_frac_"} {
		for _, tn := range hls.ResourceTypeNames {
			register(CatGlobal, group+tn)
		}
	}
	register(CatGlobal,
		"glob_target_period_ns", "glob_clock_uncertainty_ns",
		"glob_est_clock_top_ns", "glob_est_clock_fop_ns",
		"glob_latency_top_cycles", "glob_latency_fop_cycles",
		"glob_mem_fop_words", "glob_mem_fop_banks", "glob_mem_fop_bits", "glob_mem_fop_primitives",
		"glob_mem_top_words", "glob_mem_top_banks", "glob_mem_top_bits", "glob_mem_top_primitives",
		"glob_mux_fop_count", "glob_mux_fop_lut", "glob_mux_fop_avg_inputs", "glob_mux_fop_avg_width",
		"glob_mux_top_count", "glob_mux_top_lut", "glob_mux_top_avg_inputs", "glob_mux_top_avg_width",
		"glob_num_live_funcs")
	if len(registry) != NumFeatures {
		panic(fmt.Sprintf("features: registry has %d features, want %d", len(registry), NumFeatures))
	}
}

// registerPerType registers one block of names per resource type, each
// named prefix_TYPE_name.
func registerPerType(cat Category, prefix string, names ...string) {
	for _, tn := range hls.ResourceTypeNames {
		for _, n := range names {
			register(cat, fmt.Sprintf("%s_%s_%s", prefix, tn, n))
		}
	}
}

// noKinds is the op-type one-hot block of an op of no valid kind.
var noKinds [ir.KindCount]float64

// fill writes the feature vector of the op c describes into dst, whose
// length is NumFeatures, in registry order. Each value must keep the bits
// of its per-feature evaluator in the tests' frozen reference, so each is
// computed from the same terms in the same order;
// TestAggregatesMatchReference checks every column.
func (e *Extractor) fill(dst []float64, c *opCtx) {
	node, a := c.node, &c.agg
	v := dst[:0]

	// Bitwidth.
	v = append(v, float64(c.op.Bitwidth))

	// Interconnection. The fan sums and the widest edge take one pass over
	// the node's edges.
	fanIn, fanOut, maxWires := 0, 0, 0
	for _, ed := range node.In {
		fanIn += ed.Wires
		maxWires = max(maxWires, ed.Wires)
	}
	for _, ed := range node.Out {
		fanOut += ed.Wires
		maxWires = max(maxWires, ed.Wires)
	}
	var fracIn, fracOut float64
	if fanIn > 0 {
		fracIn = float64(maxWires) / float64(fanIn)
	}
	if fanOut > 0 {
		fracOut = float64(maxWires) / float64(fanOut)
	}
	fanIn2, fanOut2 := 0.0, 0.0
	for _, n := range c.n2pred {
		fanIn2 += float64(n.FanIn())
	}
	for _, n := range c.n2succ {
		fanOut2 += float64(n.FanOut())
	}
	nIn, nOut := len(node.In), len(node.Out)
	v = append(v,
		float64(fanIn), float64(fanOut), float64(fanIn+fanOut),
		float64(nIn), float64(nOut), float64(nIn+nOut),
		float64(maxWires), fracIn, fracOut,
		safeDiv(float64(fanIn), float64(nIn)), safeDiv(float64(fanOut), float64(nOut)),
		countPorts(c.n1both),
		float64(len(c.n2pred)), float64(len(c.n2succ)), float64(len(c.n2both)),
		float64(c.edge2Total), float64(c.edge2Count), float64(c.edge2Max),
		safeDiv(float64(c.edge2Max), float64(c.edge2Total)),
		fanIn2, fanOut2, countPorts(c.n2both))

	// Resource, per type.
	own, dev, fn := resVec(node.Res()), resVec(e.Dev.Totals), resVec(c.fi.res)
	for t := range own {
		p1, s1 := a.n1pred.sum[t], a.n1succ.sum[t]
		p2, s2, b2 := a.n2pred.sum[t], a.n2succ.sum[t], a.n2both.sum[t]
		v = append(v,
			own[t], safeDiv(own[t], dev[t]), safeDiv(own[t], fn[t]),
			p1, s1, p1+s1,
			safeDiv(p1, dev[t]), safeDiv(s1, dev[t]), safeDiv(p1, fn[t]), safeDiv(s1, fn[t]),
			a.n1both.max[t], safeDiv(a.n1both.max[t], a.n1both.sum[t]),
			p2, s2, p2+s2,
			safeDiv(p2, dev[t]), safeDiv(s2, dev[t]), safeDiv(p2, fn[t]), safeDiv(s2, fn[t]),
			a.n2both.max[t], safeDiv(a.n2both.max[t], b2),
			b2, safeDiv(b2, dev[t]), safeDiv(b2, fn[t]))
	}

	// Timing.
	slot := e.Sched.Slots.Get(c.op)
	v = append(v, c.char.DelayNS, float64(c.char.Latency), float64(slot.Start), slot.FinishDelay)

	// #Resource/ΔTcs, per type.
	for t := range fn {
		ps, ss := a.dtPredSum[t], a.dtSuccSum[t]
		p2, s2 := a.dtPred2Sum[t], a.dtSucc2Sum[t]
		v = append(v,
			ps, ss, ps+ss, a.dtPredMax[t], a.dtSuccMax[t],
			safeDiv(ps, fn[t]), safeDiv(ss, fn[t]),
			p2, s2, p2+s2, safeDiv(p2, fn[t]), safeDiv(s2, fn[t]))
	}

	// Operator type: the one-hot kind, then the kind counts of the one-hop
	// neighborhood and of the second ring, all in ir.AllKinds order, which
	// is OpKind.Index order.
	hot := len(v)
	v = append(v, noKinds[:]...)
	if c.op.Kind.Valid() {
		v[hot+c.op.Kind.Index()] = 1
	}
	v = append(v, a.kind1[:]...)
	v = append(v, a.kind2[:]...)

	// Global information, computed once per function by NewExtractor.
	v = append(v, c.fi.global[:]...)

	if len(v) != NumFeatures {
		panic(fmt.Sprintf("features: fill wrote %d features, want %d", len(v), NumFeatures))
	}
}

// fillGlobal computes fi's Global Information block, in registry order.
func (e *Extractor) fillGlobal(fi *funcInfo) {
	top := e.topInfo
	res, topRes := resVec(fi.res), resVec(top.res)
	g := fi.global[:0]
	g = append(g, topRes[:]...)
	g = append(g, res[:]...)
	for t := range res {
		g = append(g, safeDiv(res[t], topRes[t]))
	}
	g = append(g,
		e.Sched.Clock.PeriodNS, e.Sched.Clock.UncertaintyNS,
		top.estClock, fi.estClock,
		float64(top.latency), float64(fi.latency),
		fi.memWords, fi.memBanks, fi.memBits, fi.memPrims,
		top.memWords, top.memBanks, top.memBits, top.memPrims,
		float64(fi.mux.Count), float64(fi.mux.Res.LUT), fi.mux.AvgInputs, fi.mux.AvgWidth,
		float64(top.mux.Count), float64(top.mux.Res.LUT), top.mux.AvgInputs, top.mux.AvgWidth,
		float64(e.nLive))
	if len(g) != globalWidth {
		panic(fmt.Sprintf("features: fillGlobal wrote %d features, want %d", len(g), globalWidth))
	}
}
