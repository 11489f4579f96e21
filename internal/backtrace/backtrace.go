// Package backtrace reproduces the paper's automatic back-tracing flow
// (Fig. 3): starting from physical information — per-CLB congestion metrics
// and tile coordinates — it gathers the net names on the output pins of
// each placed cell, parses the HDL-level provenance embedded in those names
// back to IR operation IDs, and so establishes the one-to-one relationship
// between IR operations and congestion labels that the training dataset is
// built from. Operations are further traceable to source statements through
// their recorded source locations.
package backtrace

import (
	"sort"

	"repro/internal/flow"
	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/rtl"
)

// OpCongestion is one back-traced sample: an IR operation together with the
// congestion metrics of the CLB tile its hardware landed in.
type OpCongestion struct {
	Op       *ir.Op
	Tile     fpga.XY
	VertPct  float64
	HorizPct float64
	AvgPct   float64
	// Margin marks operations placed in the outer margin band of the die,
	// the candidates for the paper's marginal-operation filtering.
	Margin bool
}

// Trace back-traces every IR operation of a completed implementation run to
// its congestion label. The result is sorted by operation ID.
func Trace(res *flow.Result) []OpCongestion {
	// Step 1 (physical): congestion metrics and coordinates come from
	// res.Routing.Map and res.Placement.
	// Step 2 (netlist): collect the output-pin net of every cell and parse
	// the op ID out of the provenance name, mirroring the paper's
	// get_nets/back-trace scripts.
	opOfCell := make(map[*rtl.Cell][]*ir.Op)
	ops := res.Mod.AllOps()
	byID := make(map[int]*ir.Op, len(ops))
	for _, o := range ops {
		byID[o.ID] = o
	}
	for _, n := range res.Netlist.Nets {
		id := rtl.ParseNetOpID(n.Name)
		if id < 0 {
			continue
		}
		if o, ok := byID[id]; ok {
			opOfCell[n.Driver] = append(opOfCell[n.Driver], o)
		}
	}
	// Step 3 (HLS info): operations whose results never leave their cell
	// have no provenance net; fall back to the binder's op->cell map.
	covered := ir.NewOpTable[bool](res.Mod)
	for _, traced := range opOfCell {
		for _, o := range traced {
			covered.Set(o, true)
		}
	}
	for _, o := range ops {
		if c, ok := res.Netlist.CellOf.Lookup(o); ok && !covered.Get(o) {
			opOfCell[c] = append(opOfCell[c], o)
		}
	}

	radii := res.Netlist.FootprintRadii()
	var out []OpCongestion
	for cell, ops := range opOfCell {
		tile := res.Placement.At(cell)
		v, h := tileCongestion(res, tile, radii[cell.ID])
		for _, o := range ops {
			out = append(out, OpCongestion{
				Op:       o,
				Tile:     tile,
				VertPct:  v,
				HorizPct: h,
				AvgPct:   (v + h) / 2,
				Margin:   res.Config.Dev.IsMargin(tile),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op.ID < out[j].Op.ID })
	return out
}

// tileCongestion reads the congestion label of an operation: the cell's
// own tile averaged with the footprint region its logic and local wiring
// occupy (at least the 7x7 neighborhood, since even a single-tile cell's
// nets terminate within a few tiles of it).
func tileCongestion(res *flow.Result, tile fpga.XY, radius int) (v, h float64) {
	cm := res.Routing.Map
	if radius < 3 {
		radius = 3
	}
	n := 0.0
	for dx := -radius; dx <= radius; dx++ {
		for dy := -radius; dy <= radius; dy++ {
			p := fpga.XY{X: tile.X + dx, Y: tile.Y + dy}
			if !res.Config.Dev.InBounds(p) {
				continue
			}
			v += cm.V[p.X][p.Y]
			h += cm.H[p.X][p.Y]
			n++
		}
	}
	return v / n, h / n
}

// SourceHotspot aggregates back-traced congestion per source line, the
// report the paper surfaces to the designer ("the most congested part of
// the source code").
type SourceHotspot struct {
	Loc    ir.SourceLoc
	Ops    int
	MaxAvg float64
	MeanV  float64
	MeanH  float64
}

// HotspotsBySource groups traced operations by source location, sorted by
// descending maximum average congestion.
func HotspotsBySource(traced []OpCongestion) []SourceHotspot {
	agg := make(map[ir.SourceLoc]*SourceHotspot)
	for _, t := range traced {
		h := agg[t.Op.Src]
		if h == nil {
			h = &SourceHotspot{Loc: t.Op.Src}
			agg[t.Op.Src] = h
		}
		h.Ops++
		h.MeanV += t.VertPct
		h.MeanH += t.HorizPct
		if t.AvgPct > h.MaxAvg {
			h.MaxAvg = t.AvgPct
		}
	}
	out := make([]SourceHotspot, 0, len(agg))
	for _, h := range agg {
		h.MeanV /= float64(h.Ops)
		h.MeanH /= float64(h.Ops)
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxAvg != out[j].MaxAvg {
			return out[i].MaxAvg > out[j].MaxAvg
		}
		if out[i].Loc.File != out[j].Loc.File {
			return out[i].Loc.File < out[j].Loc.File
		}
		return out[i].Loc.Line < out[j].Loc.Line
	})
	return out
}
