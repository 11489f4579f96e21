package hls

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
)

// serialMuls builds n dependent 16-bit multiplies (disjoint execution
// intervals -> perfect sharing candidates).
func serialMuls(n int) *ir.Module {
	m := ir.NewModule("serial")
	b := ir.NewBuilder(m.NewFunction("f"))
	cur := b.Port("p", 16)
	for i := 0; i < n; i++ {
		cur = b.Op(ir.KindMul, 16, cur, cur)
	}
	return m
}

// parallelMuls builds n independent 16-bit multiplies (overlapping
// intervals -> no sharing possible).
func parallelMuls(n int) *ir.Module {
	m := ir.NewModule("parallel")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	var outs []*ir.Op
	for i := 0; i < n; i++ {
		outs = append(outs, b.Op(ir.KindMul, 16, p, p))
	}
	b.Ret(b.ReduceTree(ir.KindAdd, 16, outs))
	return m
}

func bindOf(t *testing.T, m *ir.Module) *Binding {
	t.Helper()
	s, err := ScheduleModule(m, DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	return BindModule(s)
}

func countUnits(b *Binding, k ir.OpKind) int {
	n := 0
	for _, u := range b.Units {
		if u.Kind == k {
			n++
		}
	}
	return n
}

func TestBindingSharesSerialOps(t *testing.T) {
	b := bindOf(t, serialMuls(6))
	if got := countUnits(b, ir.KindMul); got != 1 {
		t.Errorf("6 serial muls bound to %d units, want 1 shared unit", got)
	}
	for _, u := range b.Units {
		if u.Kind == ir.KindMul && !u.Shared() {
			t.Error("the mul unit should report Shared()")
		}
	}
}

func TestBindingKeepsParallelOpsApart(t *testing.T) {
	b := bindOf(t, parallelMuls(6))
	if got := countUnits(b, ir.KindMul); got != 6 {
		t.Errorf("6 parallel muls bound to %d units, want 6", got)
	}
}

func TestBindingNoSharingInPipelinedLoops(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	b.PipelinedLoop("l", 100, 1, func() {
		v := b.Op(ir.KindMul, 16, p, p)
		b.Op(ir.KindMul, 16, v, v) // serial, but pipelined -> no sharing
	})
	bd := bindOf(t, m)
	if got := countUnits(bd, ir.KindMul); got != 2 {
		t.Errorf("pipelined muls bound to %d units, want 2", got)
	}
}

func TestBindingInsertsMuxes(t *testing.T) {
	b := bindOf(t, serialMuls(4))
	if len(b.Muxes) == 0 {
		t.Fatal("shared unit should receive steering muxes")
	}
	for _, mx := range b.Muxes {
		if mx.Inputs < 2 {
			t.Errorf("mux with %d inputs", mx.Inputs)
		}
		if mx.Res.LUT == 0 {
			t.Error("mux with no cost")
		}
		if !mx.FU.Shared() {
			t.Error("mux attached to unshared unit")
		}
	}
	// No sharing -> no muxes.
	b2 := bindOf(t, parallelMuls(4))
	if len(b2.Muxes) != 0 {
		t.Errorf("parallel design got %d muxes, want 0", len(b2.Muxes))
	}
}

// TestBindingEveryOpHasUnit checks that every op sits in exactly one
// unit, the one UnitOf names, on designs where units are shared in
// between the creation of others: a unit's op list must never take an
// entry of another's.
func TestBindingEveryOpHasUnit(t *testing.T) {
	for _, m := range []*ir.Module{serialMuls(5), bench.DigitSpam(), bench.FaceDetection(bench.WithDirectives())} {
		b := bindOf(t, m)
		listed := 0
		for _, u := range b.Units {
			for _, o := range u.Ops {
				if b.UnitOf.Get(o) != u {
					t.Fatalf("%s: op %v is listed by unit %d but bound to another", m.Name, o, u.ID)
				}
			}
			listed += len(u.Ops)
		}
		if listed != m.NumOps() {
			t.Fatalf("%s: units list %d ops, the module has %d", m.Name, listed, m.NumOps())
		}
		for _, o := range m.AllOps() {
			if b.UnitOf.Get(o) == nil {
				t.Fatalf("%s: op %v has no unit", m.Name, o)
			}
		}
	}
}

func TestBindingMemBanks(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	a := b.Array("mem", 64, 8, 4)
	b.Ret(b.Load(a, nil))
	bd := bindOf(t, m)
	if len(bd.Banks) != 4 {
		t.Fatalf("banks = %d, want 4", len(bd.Banks))
	}
	if got := len(bd.BankOf[a]); got != 4 {
		t.Fatalf("BankOf = %d entries", got)
	}
	for i, mb := range bd.BankOf[a] {
		if mb.Index != i {
			t.Errorf("bank %d has index %d", i, mb.Index)
		}
	}
}

func TestMuxStatsAggregation(t *testing.T) {
	m := serialMuls(4)
	bd := bindOf(t, m)
	st := bd.FuncMuxStats(m.Top)
	if st.Count != len(bd.Muxes) {
		t.Errorf("mux count = %d, want %d", st.Count, len(bd.Muxes))
	}
	if st.Count > 0 && (st.AvgInputs < 2 || st.AvgWidth <= 0) {
		t.Errorf("mux stats malformed: %+v", st)
	}
	// A function with no muxes yields zeroes.
	empty := ir.NewModule("e")
	eb := ir.NewBuilder(empty.NewFunction("f"))
	eb.Ret(eb.Port("p", 8))
	ebd := bindOf(t, empty)
	if s := ebd.FuncMuxStats(empty.Top); s.Count != 0 || s.AvgInputs != 0 {
		t.Errorf("empty mux stats: %+v", s)
	}
}

func TestBoundResourcesCountSharedOnce(t *testing.T) {
	shared := bindOf(t, serialMuls(6))
	private := bindOf(t, parallelMuls(6))
	sr := shared.ModuleBoundResources()
	pr := private.ModuleBoundResources()
	if sr.DSP >= pr.DSP {
		t.Errorf("shared DSP (%d) must be below replicated DSP (%d)", sr.DSP, pr.DSP)
	}
}

func TestUnitsOfSorted(t *testing.T) {
	m := parallelMuls(5)
	bd := bindOf(t, m)
	us := bd.UnitsOf(m.Top)
	for i := 1; i < len(us); i++ {
		if us[i-1].ID >= us[i].ID {
			t.Fatal("UnitsOf not sorted")
		}
	}
}

func TestWidthBucket(t *testing.T) {
	cases := map[int]int{1: 8, 8: 8, 9: 16, 16: 16, 17: 32, 33: 64}
	for w, want := range cases {
		if got := widthBucket(w); got != want {
			t.Errorf("widthBucket(%d) = %d, want %d", w, got, want)
		}
	}
}

func TestOverlaps(t *testing.T) {
	spans := []span{{2, 4}, {8, 9}}
	cases := []struct {
		s, e int
		want bool
	}{
		{0, 1, false}, {0, 2, true}, {4, 5, true}, {5, 7, false}, {9, 12, true},
	}
	for _, c := range cases {
		if got := overlaps(spans, c.s, c.e); got != c.want {
			t.Errorf("overlaps([%d,%d]) = %v, want %v", c.s, c.e, got, c.want)
		}
	}
}
