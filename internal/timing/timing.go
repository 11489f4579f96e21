// Package timing performs static timing analysis over the placed-and-routed
// design. Arrival times combine the scheduler's intra-state combinational
// chains with wire delays derived from each connection's routed length and
// congestion: wires through overflowed tiles pay a detour factor, which is
// how routing congestion degrades WNS and maximum frequency in the paper's
// Tables I, III and VI.
package timing

import (
	"math"

	"repro/internal/hls"
	"repro/internal/route"
	"repro/internal/rtl"
)

// Model holds the interconnect delay model constants.
type Model struct {
	BaseNS    float64 // fixed connection overhead
	PerTileNS float64 // delay per tile traversed at low utilization
	AvgKnee   float64 // average-utilization ratio where detours begin
	AvgSlope  float64 // per-tile multiplier per unit of average overflow
	MaxSlope  float64 // per-tile multiplier per unit of worst-tile overflow
	MaxOverNS float64 // flat penalty per unit of worst-tile overflow
}

// DefaultModel returns constants calibrated so an uncongested design meets
// a 100 MHz target within a fraction of a nanosecond while heavily
// congested designs degrade toward ~40 MHz, matching the paper's Table I
// span. Connections through overfull tiles pay both a per-tile detour
// multiplier and a flat rip-up penalty, so the worst tile on the path
// dominates — congestion, not raw distance, sets the critical path.
func DefaultModel() Model {
	return Model{BaseNS: 0.15, PerTileNS: 0.03, AvgKnee: 0.6, AvgSlope: 1.5,
		MaxSlope: 3.0, MaxOverNS: 12.0}
}

// WireDelay returns the modeled delay of one routed connection.
func (md Model) WireDelay(p route.PinStats) float64 {
	factor := 1.0
	if p.AvgUtil > md.AvgKnee {
		factor += md.AvgSlope * (p.AvgUtil - md.AvgKnee)
	}
	if p.MaxUtil > 1.0 {
		factor += md.MaxSlope * (p.MaxUtil - 1.0)
	}
	d := md.BaseNS + md.PerTileNS*float64(p.Length)*factor
	if p.MaxUtil > 1.0 {
		// Quadratic in the overflow: mildly congested paths survive, paths
		// through badly overfull tiles blow up — the rip-up behaviour real
		// routers exhibit.
		over := p.MaxUtil - 1.0
		d += md.MaxOverNS * over * over
	}
	return d
}

// Report is the STA outcome for one implementation.
type Report struct {
	CriticalNS    float64 // worst register-to-register arrival incl. uncertainty
	WNS           float64 // worst negative slack vs the target period
	FmaxMHz       float64 // 1000 / CriticalNS
	LatencyCycles int64   // top-function latency from the schedule
}

// Analyze computes the timing report.
func Analyze(s *hls.Schedule, nl *rtl.Netlist, rr *route.Result, md Model) *Report {
	// Worst intra-state combinational finish per cell: the logic part of any
	// path ending at that cell.
	intrinsic := make([]float64, len(nl.Cells))
	for _, c := range nl.Cells {
		worst := 0.5 // structural cells (mux select, memory output)
		for _, o := range c.Ops() {
			if d := s.Slots.Get(o).FinishDelay; d > worst {
				worst = d
			}
		}
		intrinsic[c.ID] = worst
	}
	critical := 0.0
	for _, c := range nl.Cells {
		if intrinsic[c.ID] > critical {
			critical = intrinsic[c.ID]
		}
	}
	for _, p := range rr.Pins {
		d := md.WireDelay(p) + intrinsic[p.Sink.Cell.ID]
		if d > critical {
			critical = d
		}
	}
	arrival := critical + s.Clock.UncertaintyNS
	var lat int64
	if fs := s.Funcs[s.Mod.Top]; fs != nil {
		lat = fs.LatencyCycles
	}
	return &Report{
		CriticalNS:    arrival,
		WNS:           s.Clock.PeriodNS - arrival,
		FmaxMHz:       1000.0 / arrival,
		LatencyCycles: lat,
	}
}

// RoundWNS rounds a slack to the milli-nanosecond precision Vivado reports.
func RoundWNS(wns float64) float64 { return math.Round(wns*1000) / 1000 }
