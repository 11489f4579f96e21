package hls

import (
	"testing"

	"repro/internal/ir"
)

// chainModule builds a linear chain of n adders on one port.
func chainModule(n int, width int) (*ir.Module, []*ir.Op) {
	m := ir.NewModule("chain")
	b := ir.NewBuilder(m.NewFunction("f"))
	cur := b.Port("p", width)
	var ops []*ir.Op
	for i := 0; i < n; i++ {
		cur = b.Op(ir.KindAdd, width, cur, cur)
		ops = append(ops, cur)
	}
	return m, ops
}

func TestScheduleChainsWithinBudget(t *testing.T) {
	// 8-bit adds are ~1.3 ns; about 6 of them chain into one 8.75 ns state.
	m, ops := chainModule(12, 8)
	s, err := ScheduleModule(m, DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	budget := s.Clock.Budget()
	prevEnd, prevDelay := 0, 0.0
	states := 1
	for _, o := range ops {
		sl := s.Slot(o)
		if sl.FinishDelay > budget {
			t.Errorf("op %v finish delay %.2f exceeds budget %.2f", o, sl.FinishDelay, budget)
		}
		if sl.End < prevEnd {
			t.Errorf("schedule goes backwards at %v", o)
		}
		if sl.End > prevEnd {
			states++
			if prevEnd != 0 && prevDelay+0.01 < budget-2.0 {
				t.Errorf("started new state while %.2f of %.2f budget unused", budget-prevDelay, budget)
			}
		}
		prevEnd, prevDelay = sl.End, sl.FinishDelay
	}
	if states < 2 {
		t.Errorf("12 chained adds should span several states, got %d", states)
	}
}

func TestScheduleSequentialOperators(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	mul := b.Op(ir.KindMul, 16, p, p) // latency 3
	use := b.Op(ir.KindAdd, 16, mul, p)
	s, err := ScheduleModule(m, DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	ms := s.Slot(mul)
	if ms.End-ms.Start != Characterize(ir.KindMul, 16).Latency {
		t.Errorf("mul occupies %d cycles", ms.End-ms.Start)
	}
	us := s.Slot(use)
	if us.Start < ms.End {
		t.Errorf("consumer starts at %d before producer result at %d", us.Start, ms.End)
	}
}

func TestScheduleMemoryPortLimit(t *testing.T) {
	// One monolithic array (2 ports) with 8 parallel loads: the loads must
	// serialize over >= 4 states. A fully partitioned copy must not.
	build := func(banks int) *ir.Module {
		m := ir.NewModule("m")
		b := ir.NewBuilder(m.NewFunction("f"))
		a := b.Array("mem", 16, 8, banks)
		var loads []*ir.Op
		for i := 0; i < 8; i++ {
			loads = append(loads, b.Load(a, nil))
		}
		b.Ret(b.ReduceTree(ir.KindAdd, 8, loads))
		return m
	}
	sMono, err := ScheduleModule(build(1), DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	sPart, err := ScheduleModule(build(16), DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	monoSteps := sMono.Funcs[sMono.Mod.Top].Steps
	partSteps := sPart.Funcs[sPart.Mod.Top].Steps
	if monoSteps <= partSteps {
		t.Errorf("monolithic array (%d steps) must serialize vs partitioned (%d steps)",
			monoSteps, partSteps)
	}
}

func TestScheduleLatencyLoops(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 8)
	b.EnterLoop("l", 100)
	b.Op(ir.KindNot, 8, p)
	b.ExitLoop()
	s, err := ScheduleModule(m, DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	lat := s.Funcs[m.Top].LatencyCycles
	if lat < 100 {
		t.Errorf("100-trip loop latency = %d, want >= 100", lat)
	}
}

func TestSchedulePipelinedLoopLatency(t *testing.T) {
	build := func(pipelined bool) int64 {
		m := ir.NewModule("m")
		b := ir.NewBuilder(m.NewFunction("f"))
		p := b.Port("p", 16)
		body := func() {
			v := b.Op(ir.KindDiv, 16, p, p) // multi-state body
			b.Op(ir.KindAdd, 16, v, p)
		}
		if pipelined {
			b.PipelinedLoop("l", 1000, 1, body)
		} else {
			b.EnterLoop("l", 1000)
			body()
			b.ExitLoop()
		}
		s, err := ScheduleModule(m, DefaultClock())
		if err != nil {
			panic(err)
		}
		return s.Funcs[m.Top].LatencyCycles
	}
	plain := build(false)
	piped := build(true)
	if piped >= plain {
		t.Errorf("pipelined latency %d must beat sequential %d", piped, plain)
	}
}

func TestScheduleCallLatency(t *testing.T) {
	// A callee invoked from a non-pipelined loop multiplies its latency by
	// the trip count; from a pipelined loop it is paid once.
	build := func(pipelined bool) int64 {
		m := ir.NewModule("m")
		top := m.NewFunction("top")
		leaf := m.NewFunction("leaf")
		lb := ir.NewBuilder(leaf)
		lp := lb.Port("x", 16)
		lv := lb.Op(ir.KindDiv, 16, lp, lp) // long-latency body
		lb.Ret(lv)
		tb := ir.NewBuilder(top)
		tp := tb.Port("a", 16)
		body := func() { tb.Call(leaf, tp) }
		if pipelined {
			tb.PipelinedLoop("l", 50, 1, body)
		} else {
			tb.EnterLoop("l", 50)
			body()
			tb.ExitLoop()
		}
		s, err := ScheduleModule(m, DefaultClock())
		if err != nil {
			panic(err)
		}
		return s.Funcs[top].LatencyCycles
	}
	seq := build(false)
	pip := build(true)
	if seq < 50*int64(Characterize(ir.KindDiv, 16).Latency) {
		t.Errorf("sequential call latency %d too small", seq)
	}
	if pip >= seq/2 {
		t.Errorf("pipelined calls latency %d should be far below sequential %d", pip, seq)
	}
}

func TestDeltaTcs(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	mul := b.Op(ir.KindMul, 16, p, p) // result at state Start+3
	imm := b.Op(ir.KindAdd, 16, p, p) // same state as p
	late := b.Op(ir.KindAdd, 16, mul, imm)
	s, err := ScheduleModule(m, DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	if dt := s.DeltaTcs(mul, late); dt < 1 {
		t.Errorf("DeltaTcs = %d, must be >= 1", dt)
	}
	// imm finished long before late starts: its slack is larger.
	if s.DeltaTcs(imm, late) <= s.DeltaTcs(mul, late) {
		t.Errorf("earlier producer must have larger DeltaTcs: imm=%d mul=%d",
			s.DeltaTcs(imm, late), s.DeltaTcs(mul, late))
	}
}

func TestScheduleRejectsInvalidModule(t *testing.T) {
	m := &ir.Module{Name: "broken"}
	if _, err := ScheduleModule(m, DefaultClock()); err == nil {
		t.Fatal("scheduling an invalid module must fail")
	}
}

func TestEstimateResources(t *testing.T) {
	m := ir.NewModule("m")
	f := m.NewFunction("f")
	b := ir.NewBuilder(f)
	p := b.Port("p", 16)
	b.Op(ir.KindMul, 16, p, p)
	b.Array("mem", 2048, 16, 1)
	r := EstimateResources(f)
	if r.DSP == 0 {
		t.Error("estimate misses the multiplier DSP")
	}
	if r.BRAM == 0 {
		t.Error("estimate misses the array BRAM")
	}
}

func TestSortedOps(t *testing.T) {
	m, _ := chainModule(5, 8)
	s, err := ScheduleModule(m, DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	ops := s.SortedOps(m.Top)
	for i := 1; i < len(ops); i++ {
		a, b := s.Slot(ops[i-1]), s.Slot(ops[i])
		if a.Start > b.Start {
			t.Fatal("SortedOps not ordered by start state")
		}
	}
}

func TestComputeMobility(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	// A long dependence chain (critical) and one side op (slack).
	cur := p
	for i := 0; i < 4; i++ {
		cur = b.Op(ir.KindMul, 16, cur, cur) // sequential, 3 cycles each
	}
	side := b.Op(ir.KindAdd, 16, p, p)
	b.Ret(b.Op(ir.KindAdd, 16, cur, side))
	s, err := ScheduleModule(m, DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	mob := s.ComputeMobility(m.Top)
	if mob == nil {
		t.Fatal("nil mobility")
	}
	// Every slack must be non-negative and ALAP >= ASAP.
	for _, o := range m.Top.Ops {
		if mob.Slack.Get(o) < 0 {
			t.Fatalf("negative slack on %v", o)
		}
		if mob.ALAPStart.Get(o) < s.Slots.Get(o).Start {
			t.Fatalf("ALAP before ASAP on %v", o)
		}
	}
	if mob.Slack.Get(side) == 0 {
		t.Error("side op should have mobility")
	}
	crit := mob.CriticalOps()
	if len(crit) == 0 {
		t.Fatal("no critical ops on a chained design")
	}
	// The multiply chain must be critical.
	mulCrit := 0
	for _, o := range crit {
		if o.Kind == ir.KindMul {
			mulCrit++
		}
	}
	if mulCrit != 4 {
		t.Errorf("critical muls = %d, want 4", mulCrit)
	}
	if mob.MeanSlack() <= 0 {
		t.Error("mean slack should be positive with a slack op present")
	}
	if s.ComputeMobility(&ir.Function{}) != nil {
		t.Error("unknown function should yield nil mobility")
	}
}

func TestAllocationLimitSerializes(t *testing.T) {
	build := func() *ir.Module {
		m := ir.NewModule("m")
		b := ir.NewBuilder(m.NewFunction("f"))
		p := b.Port("p", 16)
		var outs []*ir.Op
		for i := 0; i < 8; i++ {
			outs = append(outs, b.Op(ir.KindMul, 16, p, p))
		}
		b.Ret(b.ReduceTree(ir.KindAdd, 16, outs))
		return m
	}
	free, err := ScheduleModule(build(), DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	limited, err := ScheduleModuleAlloc(build(), DefaultClock(),
		Allocation{Limits: map[ir.OpKind]int{ir.KindMul: 2}})
	if err != nil {
		t.Fatal(err)
	}
	fs, ls := free.Funcs[free.Mod.Top].Steps, limited.Funcs[limited.Mod.Top].Steps
	if ls <= fs {
		t.Errorf("allocation limit did not serialize: %d steps vs %d", ls, fs)
	}
	// At most 2 muls execute in any state.
	occupancy := map[int]int{}
	for _, o := range limited.Mod.AllOps() {
		if o.Kind != ir.KindMul {
			continue
		}
		sl := limited.Slots.Get(o)
		for st := sl.Start; st < sl.End; st++ {
			occupancy[st]++
			if occupancy[st] > 2 {
				t.Fatalf("state %d runs %d muls, limit 2", st, occupancy[st])
			}
		}
	}
	// The serialized muls now share hardware in binding.
	freeBind := BindModule(free)
	limBind := BindModule(limited)
	count := func(b *Binding) int {
		n := 0
		for _, u := range b.Units {
			if u.Kind == ir.KindMul {
				n++
			}
		}
		return n
	}
	if count(limBind) >= count(freeBind) {
		t.Errorf("allocation limit did not reduce mul units: %d vs %d",
			count(limBind), count(freeBind))
	}
}

func TestAllocationUnlimitedByDefault(t *testing.T) {
	m := ir.NewModule("m")
	b := ir.NewBuilder(m.NewFunction("f"))
	p := b.Port("p", 16)
	for i := 0; i < 4; i++ {
		b.Op(ir.KindMul, 16, p, p)
	}
	s, err := ScheduleModule(m, DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range m.AllOps() {
		if o.Kind == ir.KindMul && s.Slots.Get(o).Start != 0 {
			t.Fatalf("unconstrained mul delayed to state %d", s.Slots.Get(o).Start)
		}
	}
}
