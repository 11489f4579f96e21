// Quickstart: build a small custom HLS design with the IR builder, run the
// simulated C-to-FPGA flow, and print its performance and congestion map.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/congestion"
	"repro/internal/flow"
	"repro/internal/ir"
)

func main() {
	// A toy FIR-like kernel: a completely partitioned coefficient bank and
	// a multiply-accumulate loop unrolled by 8.
	m := ir.NewModule("fir8")
	top := m.NewFunction("fir_top")
	b := ir.NewBuilder(top).At("fir.cpp", 5)

	x := b.Port("x_in", 16)
	coeffs := b.Array("coeffs", 32, 16, 32) // completely partitioned

	b.Line(12)
	var taps []*ir.Op
	b.UnrolledLoop("mac", 1024, 8, func(copy int) {
		c := b.Load(coeffs, nil)
		prod := b.Op(ir.KindMul, 16, x, c)
		sh := b.Op(ir.KindAShr, 16, prod, b.Const(4))
		taps = append(taps, sh)
	})
	b.Line(18)
	acc := b.ReduceTree(ir.KindAdd, 16, taps)
	b.Ret(acc)

	res, err := flow.Run(m, flow.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	p := res.Perf(m.Name)
	fmt.Printf("design %s: %d ops, %d cells, %d nets\n",
		m.Name, m.NumOps(), len(res.Netlist.Cells), len(res.Netlist.Nets))
	fmt.Printf("WNS=%.3f ns  Fmax=%.1f MHz  latency=%d cycles\n", p.WNS, p.FmaxMHz, p.LatencyCycles)
	fmt.Printf("max congestion: V=%.1f%%  H=%.1f%%  congested CLBs(>100%%)=%d\n",
		p.MaxVertPct, p.MaxHorizPct, p.CongestedCLBs)
	fmt.Print(res.Routing.Map.RenderASCII(congestion.Average, 2, 4))
}
