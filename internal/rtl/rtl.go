// Package rtl turns a bound HLS schedule into a register-transfer-level
// netlist: cells (functional-unit instances, steering multiplexers, memory
// banks) connected by named nets. Net names embed the driving IR operation
// the way Vivado HLS embeds RTL signal provenance, which is what the
// back-tracing flow in internal/backtrace parses to walk congestion metrics
// from placed cells back to IR operations and source lines.
package rtl

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hls"
	"repro/internal/ir"
)

// CellKind distinguishes the netlist cell classes.
type CellKind int

const (
	// CellFU is a functional-unit instance (possibly shared).
	CellFU CellKind = iota
	// CellMux is a steering multiplexer in front of a shared unit port.
	CellMux
	// CellMem is one bank of an on-chip memory.
	CellMem
)

func (k CellKind) String() string {
	switch k {
	case CellFU:
		return "fu"
	case CellMux:
		return "mux"
	case CellMem:
		return "mem"
	}
	return "?"
}

// Cell is one placeable netlist element.
type Cell struct {
	ID   int
	Name string
	Kind CellKind
	Res  hls.Resources
	Func *ir.Function // owning RTL module instance

	// Provenance. Exactly one of FU/Mux/Bank is non-nil.
	FU   *hls.FU
	Mux  *hls.Mux
	Bank *hls.MemBank
}

// Ops returns the IR operations implemented by the cell (empty for muxes
// and memory banks).
func (c *Cell) Ops() []*ir.Op {
	if c.FU != nil {
		return c.FU.Ops
	}
	return nil
}

// Sink is one net endpoint with the number of wires it taps.
type Sink struct {
	Cell *Cell
	Bits int
}

// Net is a named multi-terminal connection.
type Net struct {
	ID     int
	Name   string
	Width  int
	Driver *Cell
	Sinks  []Sink

	// SrcOp is the IR operation whose result the net carries, nil for
	// structural nets (mux outputs, memory ports).
	SrcOp *ir.Op
}

// Wires returns the total wire count the net must carry: the maximum sink
// tap (all sinks share the same physical bus).
func (n *Net) Wires() int {
	w := 0
	for _, s := range n.Sinks {
		if s.Bits > w {
			w = s.Bits
		}
	}
	if w == 0 {
		w = n.Width
	}
	return w
}

// Netlist is the whole elaborated design.
type Netlist struct {
	Mod     *ir.Module
	Binding *hls.Binding
	Cells   []*Cell
	Nets    []*Net

	CellOf  ir.OpTable[*Cell]      // FU cell implementing each op
	cellFor map[*hls.FU]*Cell      //
	muxFor  map[muxKey]*Cell       //
	bankFor map[*hls.MemBank]*Cell //
}

type muxKey struct {
	fu   *hls.FU
	port int
}

// Elaborate builds the netlist from a binding.
func Elaborate(b *hls.Binding) *Netlist {
	nl := &Netlist{
		Mod:     b.Sched.Mod,
		Binding: b,
		CellOf:  ir.NewOpTable[*Cell](b.Sched.Mod),
		cellFor: make(map[*hls.FU]*Cell),
		muxFor:  make(map[muxKey]*Cell),
		bankFor: make(map[*hls.MemBank]*Cell),
	}
	nl.buildCells()
	nl.buildNets()
	return nl
}

func (nl *Netlist) newCell(name string, kind CellKind, res hls.Resources, f *ir.Function) *Cell {
	c := &Cell{ID: len(nl.Cells), Name: name, Kind: kind, Res: res, Func: f}
	nl.Cells = append(nl.Cells, c)
	return c
}

func (nl *Netlist) buildCells() {
	b := nl.Binding
	for _, u := range b.Units {
		c := nl.newCell(fmt.Sprintf("%s/%s_fu_%d", u.Func.Name, u.Kind, u.ID), CellFU, u.Res, u.Func)
		c.FU = u
		nl.cellFor[u] = c
		for _, o := range u.Ops {
			nl.CellOf.Set(o, c)
		}
	}
	// Mux cells, keyed by (unit, port). Binding stores muxes flat; ports of
	// one unit appear in insertion order.
	portSeen := make(map[*hls.FU]int)
	for _, m := range b.Muxes {
		p := portSeen[m.FU]
		portSeen[m.FU] = p + 1
		c := nl.newCell(fmt.Sprintf("%s/mux_%s_%d_p%d", m.FU.Func.Name, m.FU.Kind, m.FU.ID, p),
			CellMux, m.Res, m.FU.Func)
		c.Mux = m
		nl.muxFor[muxKey{m.FU, p}] = c
	}
	for _, mb := range b.Banks {
		c := nl.newCell(fmt.Sprintf("%s/%s_bank%d", mb.Array.Func.Name, mb.Array.Name, mb.Index),
			CellMem, mb.Res, mb.Array.Func)
		c.Bank = mb
		nl.bankFor[mb] = c
	}
}

// netName encodes the driving op so the back-tracer can recover it; the
// format mirrors Vivado's <module>/<signal>_reg naming.
func netName(o *ir.Op) string {
	return fmt.Sprintf("%s/%s_reg_%d", o.Func.Name, o.Name, o.ID)
}

// ParseNetOpID recovers the driving op ID from a provenance net name. It
// returns -1 for structural nets and for digit runs too large to be an op
// ID (overflow would otherwise wrap negative).
func ParseNetOpID(name string) int {
	i := len(name) - 1
	for i >= 0 && name[i] >= '0' && name[i] <= '9' {
		i--
	}
	if i < 0 || i == len(name)-1 || i < 4 || name[i] != '_' {
		return -1
	}
	if name[i-4:i] != "_reg" {
		return -1
	}
	digits := name[i+1:]
	if len(digits) > 18 { // beyond any real op ID; would overflow int64
		return -1
	}
	id := 0
	for _, d := range digits {
		id = id*10 + int(d-'0')
	}
	return id
}

func (nl *Netlist) buildNets() {
	// Dataflow nets: one per defining op that has users in other cells.
	for _, f := range nl.Mod.LiveFuncs() {
		for _, o := range f.Ops {
			drv := nl.CellOf.Get(o)
			if drv == nil {
				continue
			}
			sinkBits := make(map[*Cell]int)
			for _, u := range o.Users() {
				uc := nl.CellOf.Get(u)
				if uc == nil || uc == drv {
					continue
				}
				// Caller-side values feeding a call land directly on the
				// callee instance's interface register (its port cell); the
				// call unit itself only carries control.
				target := uc
				if u.Kind == ir.KindCall {
					if pc := nl.argPortCell(u, o); pc != nil {
						target = pc
					}
				} else if u2, ok := nl.routeViaMux(u, o, uc); ok {
					// Route into the shared unit's mux when one exists for
					// the operand port this edge feeds.
					target = u2
				}
				bits := 0
				for _, e := range u.Operands {
					if e.Def == o && e.Bits > bits {
						bits = e.Bits
					}
				}
				if bits > sinkBits[target] {
					sinkBits[target] = bits
				}
			}
			// Memory data connections.
			if o.Kind == ir.KindStore && o.Array != nil {
				if bc := nl.bankCellFor(o); bc != nil {
					if o.Bitwidth > sinkBits[bc] {
						sinkBits[bc] = o.Array.Bits
					}
				}
			}
			if len(sinkBits) == 0 {
				continue
			}
			n := &Net{
				ID:     len(nl.Nets),
				Name:   netName(o),
				Width:  o.Bitwidth,
				Driver: drv,
				SrcOp:  o,
			}
			cells := make([]*Cell, 0, len(sinkBits))
			for c := range sinkBits {
				cells = append(cells, c)
			}
			sort.Slice(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID })
			for _, c := range cells {
				n.Sinks = append(n.Sinks, Sink{Cell: c, Bits: sinkBits[c]})
			}
			nl.Nets = append(nl.Nets, n)
		}
	}
	// Mux output nets: mux -> its unit.
	for _, mc := range nl.Cells {
		if mc.Kind != CellMux {
			continue
		}
		uc, ok := nl.cellFor[mc.Mux.FU]
		if !ok {
			continue
		}
		nl.Nets = append(nl.Nets, &Net{
			ID:     len(nl.Nets),
			Name:   mc.Name + "_out",
			Width:  mc.Mux.Width,
			Driver: mc,
			Sinks:  []Sink{{Cell: uc, Bits: mc.Mux.Width}},
		})
	}
	// Memory read nets: bank -> load units.
	loadsOf := make(map[*Cell][]*Cell) // bank cell -> load cells
	for _, f := range nl.Mod.LiveFuncs() {
		for _, o := range f.Ops {
			if o.Kind != ir.KindLoad || o.Array == nil {
				continue
			}
			bc := nl.bankCellFor(o)
			lc := nl.CellOf.Get(o)
			if bc == nil || lc == nil {
				continue
			}
			loadsOf[bc] = append(loadsOf[bc], lc)
		}
	}
	bankCells := make([]*Cell, 0, len(loadsOf))
	for bc := range loadsOf {
		bankCells = append(bankCells, bc)
	}
	sort.Slice(bankCells, func(i, j int) bool { return bankCells[i].ID < bankCells[j].ID })
	for _, bc := range bankCells {
		seen := make(map[*Cell]bool)
		n := &Net{
			ID:     len(nl.Nets),
			Name:   bc.Name + "_dout",
			Width:  bc.Bank.Array.Bits,
			Driver: bc,
		}
		for _, lc := range loadsOf[bc] {
			if seen[lc] {
				continue
			}
			seen[lc] = true
			n.Sinks = append(n.Sinks, Sink{Cell: lc, Bits: bc.Bank.Array.Bits})
		}
		nl.Nets = append(nl.Nets, n)
	}
	// Call return nets: the callee's return-value register drives the
	// caller-side call unit, which fans the result out to its users.
	for _, f := range nl.Mod.LiveFuncs() {
		for _, o := range f.Ops {
			if o.Kind != ir.KindCall {
				continue
			}
			callee := nl.calleeOf(f, o)
			if callee == nil {
				continue
			}
			rv := calleeRetValue(callee)
			if rv == nil {
				continue
			}
			rc := nl.CellOf.Get(rv)
			cc := nl.CellOf.Get(o)
			if rc == nil || cc == nil || rc == cc {
				continue
			}
			nl.Nets = append(nl.Nets, &Net{
				ID:     len(nl.Nets),
				Name:   fmt.Sprintf("%s_ret_%d", o.Name, o.ID),
				Width:  o.Bitwidth,
				Driver: rc,
				Sinks:  []Sink{{Cell: cc, Bits: o.Bitwidth}},
				SrcOp:  o,
			})
		}
	}
}

// argPortCell maps a call operand's defining value to the callee port cell
// the value is registered into.
func (nl *Netlist) argPortCell(call *ir.Op, def *ir.Op) *Cell {
	callee := nl.calleeOf(call.Func, call)
	if callee == nil {
		return nil
	}
	ports := callee.PortOps()
	for i, e := range call.Operands {
		if e.Def == def && i < len(ports) {
			return nl.CellOf.Get(ports[i])
		}
	}
	return nil
}

// calleeRetValue returns the op whose value the callee returns, or nil.
func calleeRetValue(callee *ir.Function) *ir.Op {
	for _, o := range callee.Ops {
		if o.Kind == ir.KindRet && len(o.Operands) > 0 {
			return o.Operands[0].Def
		}
	}
	return nil
}

// routeViaMux redirects an edge feeding a shared unit to the mux cell that
// guards the operand port the edge uses.
func (nl *Netlist) routeViaMux(user, def *ir.Op, userCell *Cell) (*Cell, bool) {
	if userCell.FU == nil || !userCell.FU.Shared() {
		return nil, false
	}
	port := -1
	for i, e := range user.Operands {
		if e.Def == def {
			port = i
			break
		}
	}
	if port < 0 {
		return nil, false
	}
	mc, ok := nl.muxFor[muxKey{userCell.FU, port}]
	if !ok {
		return nil, false
	}
	return mc, true
}

// bankCellFor picks the bank cell a memory op accesses; accesses spread
// round-robin over the partition banks by op ID, approximating affine
// bank-interleaved partitioning.
func (nl *Netlist) bankCellFor(o *ir.Op) *Cell {
	banks := nl.Binding.BankOf[o.Array]
	if len(banks) == 0 {
		return nil
	}
	mb := banks[o.ID%len(banks)]
	return nl.bankFor[mb]
}

func (nl *Netlist) calleeOf(f *ir.Function, call *ir.Op) *ir.Function {
	for _, cf := range f.Callees {
		if call.Name == "call_"+cf.Name {
			return cf
		}
	}
	return nil
}

// FootprintRadii estimates, per cell, the radius in tiles of the region the
// cell's logic and pin wiring physically occupy: large macros spread over
// many tiles, and heavily connected cells (interface register banks, shared
// hubs) fan their pins out over a neighborhood. The router spreads pin
// terminals over this footprint and back-tracing averages congestion labels
// over it.
func (nl *Netlist) FootprintRadii() []int {
	pinWires := make([]float64, len(nl.Cells))
	for _, n := range nl.Nets {
		w := float64(n.Wires())
		pinWires[n.Driver.ID] += w
		for _, s := range n.Sinks {
			pinWires[s.Cell.ID] += w
		}
	}
	const perTile = 16.0 // logic units a CLB tile holds (8 LUT + 16 FF/2)
	radii := make([]int, len(nl.Cells))
	for _, c := range nl.Cells {
		area := float64(c.Res.LUT) + 0.5*float64(c.Res.FF)
		rad := int(math.Sqrt(area/perTile)) / 2
		if wr := int(pinWires[c.ID] / 64); wr > rad {
			rad = wr
		}
		if rad > 8 {
			rad = 8
		}
		radii[c.ID] = rad
	}
	return radii
}

// Stats summarizes the netlist.
type Stats struct {
	Cells, Nets, Pins int
	TotalWires        int
	Res               hls.Resources
}

// ComputeStats tallies the netlist size.
func (nl *Netlist) ComputeStats() Stats {
	var st Stats
	st.Cells = len(nl.Cells)
	st.Nets = len(nl.Nets)
	for _, c := range nl.Cells {
		st.Res = st.Res.Add(c.Res)
	}
	for _, n := range nl.Nets {
		st.Pins += 1 + len(n.Sinks)
		st.TotalWires += n.Wires()
	}
	return st
}
