package rtl

import (
	"strings"
	"testing"

	"repro/internal/hls"
	"repro/internal/ir"
)

func elaborate(t *testing.T, m *ir.Module) *Netlist {
	t.Helper()
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	return Elaborate(hls.BindModule(s))
}

func simpleModule() *ir.Module {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	a := b.Array("mem", 64, 16, 2)
	v := b.Load(a, nil)
	s := b.Op(ir.KindAdd, 16, v, p)
	b.Store(a, s, nil)
	b.Ret(s)
	return m
}

func TestElaborateCells(t *testing.T) {
	m := simpleModule()
	nl := elaborate(t, m)
	var fu, mem, mux int
	for _, c := range nl.Cells {
		switch c.Kind {
		case CellFU:
			fu++
		case CellMem:
			mem++
		case CellMux:
			mux++
		}
	}
	if mem != 2 {
		t.Errorf("mem cells = %d, want 2 banks", mem)
	}
	if fu == 0 {
		t.Error("no FU cells")
	}
	// Every op maps to a cell.
	for _, o := range m.AllOps() {
		if nl.CellOf.Get(o) == nil {
			t.Errorf("op %v has no cell", o)
		}
	}
}

func TestNetNamesCarryProvenance(t *testing.T) {
	m := simpleModule()
	nl := elaborate(t, m)
	found := 0
	for _, n := range nl.Nets {
		if n.SrcOp == nil {
			continue
		}
		id := ParseNetOpID(n.Name)
		if n.SrcOp.Kind == ir.KindCall {
			continue // return nets reuse the call op's id differently
		}
		if id != n.SrcOp.ID {
			t.Errorf("net %q parses to id %d, want %d", n.Name, id, n.SrcOp.ID)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no provenance nets found")
	}
}

func TestParseNetOpID(t *testing.T) {
	cases := map[string]int{
		"f/add_12_reg_12":   12,
		"top/mul_3_reg_345": 345,
		"f/mux_out":         -1,
		"weird":             -1,
		"x_reg_":            -1,
		"_reg_7":            7, // minimal provenance form still parses
	}
	for name, want := range cases {
		if got := ParseNetOpID(name); got != want {
			t.Errorf("ParseNetOpID(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestNetWires(t *testing.T) {
	n := &Net{Width: 32, Sinks: []Sink{{Bits: 8}, {Bits: 16}}}
	if n.Wires() != 16 {
		t.Errorf("Wires = %d, want max sink tap 16", n.Wires())
	}
	empty := &Net{Width: 9}
	if empty.Wires() != 9 {
		t.Errorf("sink-less net Wires = %d, want width", empty.Wires())
	}
}

func TestMemoryNets(t *testing.T) {
	m := simpleModule()
	nl := elaborate(t, m)
	var bankDrives, bankSinks int
	for _, n := range nl.Nets {
		if n.Driver.Kind == CellMem {
			bankDrives++
		}
		for _, s := range n.Sinks {
			if s.Cell.Kind == CellMem {
				bankSinks++
			}
		}
	}
	if bankDrives == 0 {
		t.Error("no bank->load net")
	}
	if bankSinks == 0 {
		t.Error("no store->bank connection")
	}
}

func TestCallArgsWireToPortCells(t *testing.T) {
	m := ir.NewModule("m")
	top := m.NewFunction("top")
	leaf := m.NewFunction("leaf")
	lb := ir.NewBuilder(leaf)
	x := lb.Port("x", 32)
	lv := lb.Op(ir.KindNot, 32, x)
	lb.Ret(lv)
	tb := ir.NewBuilder(top)
	a := tb.Port("a", 32)
	prod := tb.Op(ir.KindNot, 32, a)
	call := tb.Call(leaf, prod)
	tb.Ret(tb.Op(ir.KindNot, 32, call))

	nl := elaborate(t, m)
	portCell := nl.CellOf.Get(x)
	prodCell := nl.CellOf.Get(prod)
	// The arg net must run producer -> callee port cell, not to the call
	// unit.
	foundArg := false
	for _, n := range nl.Nets {
		if n.Driver != prodCell {
			continue
		}
		for _, s := range n.Sinks {
			if s.Cell == portCell {
				foundArg = true
			}
			if s.Cell == nl.CellOf.Get(call) {
				t.Error("arg net routed to call unit instead of port cell")
			}
		}
	}
	if !foundArg {
		t.Fatal("no producer->port net found")
	}
	// The return net runs callee ret-value cell -> call unit.
	foundRet := false
	for _, n := range nl.Nets {
		if n.Driver == nl.CellOf.Get(lv) {
			for _, s := range n.Sinks {
				if s.Cell == nl.CellOf.Get(call) {
					foundRet = true
				}
			}
		}
	}
	if !foundRet {
		t.Fatal("no return net found")
	}
}

func TestMuxCellsGuardSharedUnits(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	cur := b.Port("p", 16)
	for i := 0; i < 4; i++ {
		cur = b.Op(ir.KindMul, 16, cur, cur) // serial -> shared
	}
	nl := elaborate(t, m)
	var muxCells []*Cell
	for _, c := range nl.Cells {
		if c.Kind == CellMux {
			muxCells = append(muxCells, c)
		}
	}
	if len(muxCells) == 0 {
		t.Fatal("shared unit without mux cells")
	}
	// Each mux cell drives exactly its unit.
	for _, mc := range muxCells {
		drives := 0
		for _, n := range nl.Nets {
			if n.Driver == mc {
				drives++
				if n.Sinks[0].Cell.FU != mc.Mux.FU {
					t.Error("mux output net does not feed its unit")
				}
			}
		}
		if drives != 1 {
			t.Errorf("mux cell drives %d nets, want 1", drives)
		}
	}
}

func TestComputeStats(t *testing.T) {
	nl := elaborate(t, simpleModule())
	st := nl.ComputeStats()
	if st.Cells != len(nl.Cells) || st.Nets != len(nl.Nets) {
		t.Error("stats counts wrong")
	}
	if st.Pins < st.Nets {
		t.Error("pins must be at least one per net")
	}
	if st.TotalWires <= 0 {
		t.Error("no wires counted")
	}
}

func TestFootprintRadii(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 32)
	small := b.Op(ir.KindICmp, 1, p, p)
	big := b.Op(ir.KindDiv, 32, p, p) // hundreds of LUTs
	nl := elaborate(t, m)
	radii := nl.FootprintRadii()
	if len(radii) != len(nl.Cells) {
		t.Fatal("radius per cell missing")
	}
	if radii[nl.CellOf.Get(big).ID] <= radii[nl.CellOf.Get(small).ID] {
		t.Errorf("big cell radius %d <= small cell radius %d",
			radii[nl.CellOf.Get(big).ID], radii[nl.CellOf.Get(small).ID])
	}
	for _, r := range radii {
		if r < 0 || r > 8 {
			t.Errorf("radius %d out of [0,8]", r)
		}
	}
}

func TestCellNames(t *testing.T) {
	nl := elaborate(t, simpleModule())
	for _, c := range nl.Cells {
		if !strings.Contains(c.Name, "/") {
			t.Errorf("cell name %q missing module prefix", c.Name)
		}
	}
}
