package hls

import (
	"sort"

	"repro/internal/ir"
)

// FU is one bound functional-unit instance. Several IR operations may share
// it when their execution intervals do not overlap; the paper merges such
// operations into one dependency-graph node (Fig. 4).
type FU struct {
	ID    int
	Kind  ir.OpKind
	Width int // operand width of the instantiated unit
	Func  *ir.Function
	Ops   []*ir.Op
	Res   Resources // hardware cost of the single instance
}

// Shared reports whether more than one operation is bound to the unit.
func (u *FU) Shared() bool { return len(u.Ops) > 1 }

// Mux is a steering multiplexer inserted in front of a shared unit's
// operand port.
type Mux struct {
	FU     *FU
	Inputs int
	Width  int
	Res    Resources
}

// MemBank is one physical bank of a partitioned array.
type MemBank struct {
	ID    int
	Array *ir.Array
	Index int
	Res   Resources
}

// Binding is the module-wide binding result.
type Binding struct {
	Sched  *Schedule
	Units  []*FU
	UnitOf ir.OpTable[*FU]
	Muxes  []*Mux
	Banks  []*MemBank
	BankOf map[*ir.Array][]*MemBank
}

// MuxStats aggregates multiplexer figures for the Global Information
// feature category of one function.
type MuxStats struct {
	Count     int
	Res       Resources
	AvgInputs float64
	AvgWidth  float64
}

// MuxResources returns the fabric cost of an inputs-way multiplexer of the
// given width: 7-series LUT6 structures absorb roughly two selectees per
// LUT per bit.
func MuxResources(inputs, width int) Resources {
	if inputs < 2 {
		return Resources{}
	}
	return Resources{LUT: width * ((inputs + 1) / 2)}
}

// BindModule shares functional units across control steps. Operations are
// walked in schedule order per function; a sharable op joins the first
// compatible unit (same kind, same width bucket, disjoint busy interval, not
// in a pipelined loop). Every other op gets a private unit. Memory banks are
// materialized per array partition.
//
// A function's units come from one slab with a slot per op, and each new
// unit's op list and busy spans are carved from two backings with one
// entry per op. A carved slice has room for its first entry only, so a
// second op joining the unit reallocates it instead of writing over the
// next unit's entries.
func BindModule(s *Schedule) *Binding {
	b := &Binding{
		Sched:  s,
		UnitOf: ir.NewOpTable[*FU](s.Mod),
		BankOf: make(map[*ir.Array][]*MemBank),
	}
	b.Units = make([]*FU, 0, s.Mod.NumOps())
	nextFU := 0
	nextBank := 0
	for _, f := range s.Mod.LiveFuncs() {
		// busy[u.ID-firstFU] lists unit u's [start,end] intervals; a
		// function's units are numbered from firstFU up.
		firstFU := nextFU
		ops := s.SortedOps(f)
		slab := make([]FU, len(ops))
		opsBack := make([]*ir.Op, len(ops))
		spanBack := make([]span, len(ops))
		busy := make([][]span, 0, len(ops))
		var candidates []*FU

		for _, o := range ops {
			slot := s.Slots.Get(o)
			pipelined := false
			for l := o.Loop; l != nil; l = l.Parent {
				if l.Pipelined {
					pipelined = true
					break
				}
			}
			var unit *FU
			if !pipelined && Sharable(o.Kind, o.Bitwidth) {
				bucket := widthBucket(o.Bitwidth)
				for _, u := range candidates {
					if u.Kind != o.Kind || u.Width != bucket {
						continue
					}
					if overlaps(busy[u.ID-firstFU], slot.Start, slot.End) {
						continue
					}
					unit = u
					break
				}
			}
			if unit == nil {
				width := o.Bitwidth
				if Sharable(o.Kind, o.Bitwidth) {
					width = widthBucket(o.Bitwidth)
				}
				k := nextFU - firstFU
				unit = &slab[k]
				*unit = FU{
					ID:    nextFU,
					Kind:  o.Kind,
					Width: width,
					Func:  f,
					Ops:   opsBack[k : k : k+1],
					Res:   Characterize(o.Kind, width).Res,
				}
				nextFU++
				busy = append(busy, spanBack[k:k:k+1])
				b.Units = append(b.Units, unit)
				if Sharable(o.Kind, o.Bitwidth) && !pipelined {
					candidates = append(candidates, unit)
				}
			}
			unit.Ops = append(unit.Ops, o)
			// A multi-cycle unit is busy until the cycle before its result
			// registers; a back-to-back successor may take it over in the
			// result cycle itself.
			busyEnd := slot.End
			if busyEnd > slot.Start {
				busyEnd--
			}
			busy[unit.ID-firstFU] = append(busy[unit.ID-firstFU], span{slot.Start, busyEnd})
			b.UnitOf.Set(o, unit)
		}

		for _, a := range f.Arrays {
			per := ArrayResources(a)
			// Split the array cost evenly over its banks.
			banks := a.Banks
			if banks < 1 {
				banks = 1
			}
			each := Resources{
				LUT:  per.LUT / banks,
				FF:   per.FF / banks,
				DSP:  per.DSP / banks,
				BRAM: per.BRAM / banks,
			}
			for i := 0; i < banks; i++ {
				mb := &MemBank{ID: nextBank, Array: a, Index: i, Res: each}
				nextBank++
				b.Banks = append(b.Banks, mb)
				b.BankOf[a] = append(b.BankOf[a], mb)
			}
		}
	}
	b.insertMuxes()
	return b
}

func (b *Binding) insertMuxes() {
	for _, u := range b.Units {
		if !u.Shared() {
			continue
		}
		ports := 0
		for _, o := range u.Ops {
			if len(o.Operands) > ports {
				ports = len(o.Operands)
			}
		}
		for p := 0; p < ports; p++ {
			feeders := 0
			for _, o := range u.Ops {
				if p < len(o.Operands) {
					feeders++
				}
			}
			if feeders < 2 {
				continue
			}
			b.Muxes = append(b.Muxes, &Mux{
				FU:     u,
				Inputs: feeders,
				Width:  u.Width,
				Res:    MuxResources(feeders, u.Width),
			})
		}
	}
}

// FuncMuxStats aggregates the function's multiplexer statistics.
func (b *Binding) FuncMuxStats(f *ir.Function) MuxStats {
	var st MuxStats
	var ins, wid int
	for _, m := range b.Muxes {
		if m.FU.Func != f {
			continue
		}
		st.Count++
		st.Res = st.Res.Add(m.Res)
		ins += m.Inputs
		wid += m.Width
	}
	if st.Count > 0 {
		st.AvgInputs = float64(ins) / float64(st.Count)
		st.AvgWidth = float64(wid) / float64(st.Count)
	}
	return st
}

// FuncBoundResources sums the post-binding hardware of one function:
// unit instances (shared units counted once), muxes, and memory banks.
func (b *Binding) FuncBoundResources(f *ir.Function) Resources {
	var r Resources
	for _, u := range b.Units {
		if u.Func == f {
			r = r.Add(u.Res)
		}
	}
	for _, m := range b.Muxes {
		if m.FU.Func == f {
			r = r.Add(m.Res)
		}
	}
	for _, mb := range b.Banks {
		if mb.Array.Func == f {
			r = r.Add(mb.Res)
		}
	}
	return r
}

// ModuleBoundResources sums bound hardware over all live functions.
func (b *Binding) ModuleBoundResources() Resources {
	var r Resources
	for _, f := range b.Sched.Mod.LiveFuncs() {
		r = r.Add(b.FuncBoundResources(f))
	}
	return r
}

// UnitsOf returns the units belonging to a function, sorted by ID.
func (b *Binding) UnitsOf(f *ir.Function) []*FU {
	var us []*FU
	for _, u := range b.Units {
		if u.Func == f {
			us = append(us, u)
		}
	}
	sort.Slice(us, func(i, j int) bool { return us[i].ID < us[j].ID })
	return us
}

// span is a closed busy interval of control states.
type span struct{ s, e int }

func widthBucket(w int) int {
	b := 8
	for b < w {
		b *= 2
	}
	return b
}

func overlaps(spans []span, start, end int) bool {
	for _, sp := range spans {
		if start <= sp.e && sp.s <= end {
			return true
		}
	}
	return false
}
