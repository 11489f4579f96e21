// Design-space exploration: the paper's motivation is the trade-off
// between latency and routability when choosing HLS directives. This
// example sweeps Face Detection's directive space and prints the
// latency/frequency/congestion frontier, showing why a congestion-aware
// view matters during HLS-level DSE.
//
//	go run ./examples/design_space
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/flow"
)

func main() {
	cfg := flow.DefaultConfig()
	fmt.Printf("%-34s %8s %10s %12s %8s %8s %6s\n",
		"directives", "WNS(ns)", "Fmax(MHz)", "latency", "maxV%", "maxH%", ">100%")

	type point struct {
		name string
		dir  bench.Directives
	}
	var sweep []point
	for _, unroll := range []int{1, 2, 4} {
		for _, inline := range []bool{false, true} {
			for _, part := range []bool{false, true} {
				d := bench.Directives{
					Inline:            inline,
					Unroll:            unroll,
					Pipeline:          true,
					PartitionComplete: part,
				}
				sweep = append(sweep, point{
					name: fmt.Sprintf("unroll=%d inline=%-5v partition=%-5v", unroll, inline, part),
					dir:  d,
				})
			}
		}
	}
	best := -1.0
	bestName := ""
	for _, pt := range sweep {
		res, err := flow.Run(bench.FaceDetection(pt.dir), cfg)
		if err != nil {
			log.Fatal(err)
		}
		p := res.Perf(pt.name)
		fmt.Printf("%-34s %8.3f %10.1f %12d %8.1f %8.1f %6d\n",
			pt.name, p.WNS, p.FmaxMHz, p.LatencyCycles, p.MaxVertPct, p.MaxHorizPct, p.CongestedCLBs)
		// Throughput proxy: windows per second = Fmax / (latency per window).
		score := p.FmaxMHz * 1e6 / float64(p.LatencyCycles)
		if score > best {
			best = score
			bestName = pt.name
		}
	}
	fmt.Printf("\nbest frames-per-second proxy: %s\n", bestName)
}
