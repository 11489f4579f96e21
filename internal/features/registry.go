package features

import (
	"fmt"

	"repro/internal/hls"
	"repro/internal/ir"
)

// The feature registry is populated once at init time. The layout follows
// Table II of the paper; the total is asserted to be exactly NumFeatures
// (302) so any edit that changes the count fails loudly.
func init() {
	registerBitwidth()
	registerInterconnect()
	registerResource()
	registerTiming()
	registerResourceDT()
	registerOpType()
	registerGlobal()
	if len(registry) != NumFeatures {
		panic(fmt.Sprintf("features: registry has %d features, want %d", len(registry), NumFeatures))
	}
}

func registerBitwidth() {
	register("bitwidth", CatBitwidth, func(e *Extractor, c *opCtx) float64 {
		return float64(c.op.Bitwidth)
	})
}

func registerInterconnect() {
	reg := func(name string, f func(*Extractor, *opCtx) float64) {
		register("ic_"+name, CatInterconnect, f)
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
		w, _, _ := c.node.MaxEdge()
		return float64(w)
	})
	reg("max_edge_frac_fanin", func(e *Extractor, c *opCtx) float64 {
		_, fi, _ := c.node.MaxEdge()
		return fi
	})
	reg("max_edge_frac_fanout", func(e *Extractor, c *opCtx) float64 {
		_, _, fo := c.node.MaxEdge()
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

func registerResource() {
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
			return c.agg.n1pred.sum[t]
		})
		reg("succ_total", func(e *Extractor, c *opCtx) float64 {
			return c.agg.n1succ.sum[t]
		})
		reg("predsucc_sum", func(e *Extractor, c *opCtx) float64 {
			return c.agg.n1pred.sum[t] + c.agg.n1succ.sum[t]
		})
		reg("pred_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n1pred.sum[t], e.devTotal(t))
		})
		reg("succ_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n1succ.sum[t], e.devTotal(t))
		})
		reg("pred_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n1pred.sum[t], e.funcTotal(c, t))
		})
		reg("succ_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n1succ.sum[t], e.funcTotal(c, t))
		})
		reg("max_nbr", func(e *Extractor, c *opCtx) float64 {
			return c.agg.n1both.max[t]
		})
		reg("max_nbr_frac", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n1both.max[t], c.agg.n1both.sum[t])
		})
		reg("pred2_total", func(e *Extractor, c *opCtx) float64 {
			return c.agg.n2pred.sum[t]
		})
		reg("succ2_total", func(e *Extractor, c *opCtx) float64 {
			return c.agg.n2succ.sum[t]
		})
		reg("sum2", func(e *Extractor, c *opCtx) float64 {
			return c.agg.n2pred.sum[t] + c.agg.n2succ.sum[t]
		})
		reg("pred2_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n2pred.sum[t], e.devTotal(t))
		})
		reg("succ2_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n2succ.sum[t], e.devTotal(t))
		})
		reg("pred2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n2pred.sum[t], e.funcTotal(c, t))
		})
		reg("succ2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n2succ.sum[t], e.funcTotal(c, t))
		})
		reg("max_nbr2", func(e *Extractor, c *opCtx) float64 {
			return c.agg.n2both.max[t]
		})
		reg("max_nbr2_frac", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n2both.max[t], c.agg.n2both.sum[t])
		})
		reg("both2_total", func(e *Extractor, c *opCtx) float64 {
			return c.agg.n2both.sum[t]
		})
		reg("both2_util_dev", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n2both.sum[t], e.devTotal(t))
		})
		reg("both2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.n2both.sum[t], e.funcTotal(c, t))
		})
	}
}

func registerTiming() {
	register("timing_delay_ns", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return c.char.DelayNS
	})
	register("timing_latency_cycles", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return float64(c.char.Latency)
	})
	register("timing_start_state", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return float64(e.Sched.Slots[c.op].Start)
	})
	register("timing_finish_delay_ns", CatTiming, func(e *Extractor, c *opCtx) float64 {
		return e.Sched.Slots[c.op].FinishDelay
	})
}

func registerResourceDT() {
	for t := 0; t < hls.ResourceTypeCount; t++ {
		t := t
		tn := hls.ResourceTypeNames[t]
		reg := func(name string, f func(*Extractor, *opCtx) float64) {
			register(fmt.Sprintf("dt_%s_%s", tn, name), CatResourceDT, f)
		}
		reg("pred_sum", func(e *Extractor, c *opCtx) float64 {
			return c.agg.dtPredSum[t]
		})
		reg("succ_sum", func(e *Extractor, c *opCtx) float64 {
			return c.agg.dtSuccSum[t]
		})
		reg("sum", func(e *Extractor, c *opCtx) float64 {
			return c.agg.dtPredSum[t] + c.agg.dtSuccSum[t]
		})
		reg("pred_max", func(e *Extractor, c *opCtx) float64 {
			return c.agg.dtPredMax[t]
		})
		reg("succ_max", func(e *Extractor, c *opCtx) float64 {
			return c.agg.dtSuccMax[t]
		})
		reg("pred_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.dtPredSum[t], e.funcTotal(c, t))
		})
		reg("succ_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.dtSuccSum[t], e.funcTotal(c, t))
		})
		reg("pred2_sum", func(e *Extractor, c *opCtx) float64 {
			return c.agg.dtPred2Sum[t]
		})
		reg("succ2_sum", func(e *Extractor, c *opCtx) float64 {
			return c.agg.dtSucc2Sum[t]
		})
		reg("sum2", func(e *Extractor, c *opCtx) float64 {
			return c.agg.dtPred2Sum[t] + c.agg.dtSucc2Sum[t]
		})
		reg("pred2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.dtPred2Sum[t], e.funcTotal(c, t))
		})
		reg("succ2_util_func", func(e *Extractor, c *opCtx) float64 {
			return safeDiv(c.agg.dtSucc2Sum[t], e.funcTotal(c, t))
		})
	}
}

func registerOpType() {
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
		i := k.Index()
		register(fmt.Sprintf("type_nbr1_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			return c.agg.kind1[i]
		})
	}
	for _, k := range ir.AllKinds() {
		i := k.Index()
		register(fmt.Sprintf("type_nbr2_%s", k), CatOpType, func(e *Extractor, c *opCtx) float64 {
			return c.agg.kind2[i]
		})
	}
}

func registerGlobal() {
	reg := func(name string, f func(*Extractor, *opCtx) float64) {
		register("glob_"+name, CatGlobal, f)
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
