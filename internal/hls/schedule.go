package hls

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ir"
)

// OpSlot records where one operation landed in the control-state schedule.
// Start is the state in which the operation begins (inputs sampled), End the
// state in which its result becomes available. FinishDelay is the
// accumulated combinational delay inside the End state, used for operator
// chaining and later by static timing analysis.
type OpSlot struct {
	Start       int
	End         int
	FinishDelay float64
}

// FuncSchedule summarizes the schedule of one function.
type FuncSchedule struct {
	Func          *ir.Function
	Steps         int   // control states of one body execution
	LatencyCycles int64 // total latency including loop trip counts and callees
}

// Allocation bounds how many operations of a kind may execute
// concurrently, the ALLOCATION pragma of real HLS tools: tightening a limit
// trades latency for area (the serialized operations then share one unit
// in binding). A kind absent from Limits is unconstrained.
type Allocation struct {
	Limits map[ir.OpKind]int
}

// Schedule is the module-wide scheduling result.
type Schedule struct {
	Mod   *ir.Module
	Clock Clock
	Alloc Allocation
	Slots ir.OpTable[OpSlot]
	Funcs map[*ir.Function]*FuncSchedule
}

// Slot returns the schedule slot of an op.
func (s *Schedule) Slot(o *ir.Op) OpSlot { return s.Slots.Get(o) }

// DeltaTcs returns the paper's ΔTcs between a producer and a consumer: the
// number of control states separating the producer's result from the
// consumer's start, never less than 1 so the #Resource/ΔTcs features stay
// finite. Operations chained in the same state have the tightest possible
// spatial constraint, ΔTcs = 1.
func (s *Schedule) DeltaTcs(producer, consumer *ir.Op) int {
	d := s.Slots.Get(consumer).Start - s.Slots.Get(producer).End
	if d < 1 {
		return 1
	}
	return d + 1
}

// ScheduleModule runs resource-aware list scheduling over every live
// function of the module. Operations chain combinationally within a control
// state while the clock budget allows; multi-cycle operators occupy their
// characterized latency; memory operations respect the two ports each array
// bank exposes (the mechanism through which ARRAY_PARTITION buys
// parallelism).
func ScheduleModule(m *ir.Module, clock Clock) (*Schedule, error) {
	return ScheduleModuleAlloc(m, clock, Allocation{})
}

// ScheduleModuleAlloc is ScheduleModule under per-kind allocation limits.
func ScheduleModuleAlloc(m *ir.Module, clock Clock, alloc Allocation) (*Schedule, error) {
	if err := ir.Validate(m); err != nil {
		return nil, fmt.Errorf("hls: schedule: %w", err)
	}
	s := &Schedule{
		Mod:   m,
		Clock: clock,
		Alloc: alloc,
		Slots: ir.NewOpTable[OpSlot](m),
		Funcs: make(map[*ir.Function]*FuncSchedule),
	}
	// pos holds each op's index in its function's op list. Op IDs are
	// module-wide, so one table serves every function.
	pos := ir.NewOpTable[int](m)
	for _, f := range m.LiveFuncs() {
		if err := s.scheduleFunc(f, &pos); err != nil {
			return nil, err
		}
	}
	// Latency roll-up needs callees resolved first; LiveFuncs puts the top
	// first, so compute in reverse dependency order by iterating until fixed
	// (call graphs here are acyclic and shallow).
	for _, f := range m.LiveFuncs() {
		s.computeLatency(f)
	}
	s.computeLatency(m.Top)
	return s, nil
}

func (s *Schedule) scheduleFunc(f *ir.Function, pos *ir.OpTable[int]) error {
	budget := s.Clock.Budget()
	if budget <= 0 {
		return fmt.Errorf("hls: clock budget %.2f ns is not positive", budget)
	}
	// Builders emit operands before users, so f.Ops is already topological;
	// verify rather than trust.
	for i, o := range f.Ops {
		pos.Set(o, i)
	}
	for _, o := range f.Ops {
		for _, e := range o.Operands {
			if pos.Get(e.Def) >= pos.Get(o) {
				return fmt.Errorf("hls: function %q ops not topologically ordered (%s before %s)",
					f.Name, o.Name, e.Def.Name)
			}
		}
	}

	// portsUsed[array][state] counts memory accesses issued that state;
	// kindBusy[kind][state] counts allocation-limited ops executing there.
	portsUsed := make(map[*ir.Array]map[int]int)
	kindBusy := make(map[ir.OpKind]map[int]int)
	maxEnd := 0
	for _, o := range f.Ops {
		ch := Characterize(o.Kind, o.Bitwidth)
		// Earliest state and incoming chained delay from operands.
		state := 0
		inDelay := 0.0
		for _, e := range o.Operands {
			dep := s.Slots.Get(e.Def)
			if dep.End > state {
				state = dep.End
				inDelay = dep.FinishDelay
			} else if dep.End == state && dep.FinishDelay > inDelay {
				inDelay = dep.FinishDelay
			}
		}
		var slot OpSlot
		if ch.Latency > 0 {
			// Sequential operator: inputs latched at end of `state`, result
			// available Latency states later.
			start := state
			if o.Kind.IsMemory() {
				start = s.reserveMemPort(portsUsed, o.Array, start)
			}
			start = s.reserveUnit(kindBusy, o.Kind, start, ch.Latency)
			slot = OpSlot{Start: start, End: start + ch.Latency, FinishDelay: 0}
		} else {
			// Combinational: chain if the budget allows, else register the
			// inputs and occupy the next state.
			if inDelay+ch.DelayNS <= budget {
				slot = OpSlot{Start: state, End: state, FinishDelay: inDelay + ch.DelayNS}
			} else {
				slot = OpSlot{Start: state + 1, End: state + 1, FinishDelay: ch.DelayNS}
			}
			start := s.reserveUnit(kindBusy, o.Kind, slot.Start, 0)
			if start != slot.Start {
				slot = OpSlot{Start: start, End: start, FinishDelay: ch.DelayNS}
			}
		}
		s.Slots.Set(o, slot)
		if slot.End > maxEnd {
			maxEnd = slot.End
		}
	}
	s.Funcs[f] = &FuncSchedule{Func: f, Steps: maxEnd + 1}
	return nil
}

// reserveMemPort finds the earliest state >= want with a free port on the
// array (2 ports per bank) and reserves it.
func (s *Schedule) reserveMemPort(used map[*ir.Array]map[int]int, a *ir.Array, want int) int {
	if a == nil {
		return want
	}
	m := used[a]
	if m == nil {
		m = make(map[int]int)
		used[a] = m
	}
	limit := 2 * a.Banks
	if limit < 1 {
		limit = 1
	}
	st := want
	for m[st] >= limit {
		st++
	}
	m[st]++
	return st
}

// reserveUnit finds the earliest start >= want where the allocation limit
// for the kind admits another op occupying [start, start+latency-1] (or
// just start, for combinational ops), and books it.
func (s *Schedule) reserveUnit(busy map[ir.OpKind]map[int]int, kind ir.OpKind, want, latency int) int {
	limit, limited := s.Alloc.Limits[kind]
	if !limited || limit < 1 {
		return want
	}
	m := busy[kind]
	if m == nil {
		m = make(map[int]int)
		busy[kind] = m
	}
	span := latency
	if span < 1 {
		span = 1
	}
	start := want
search:
	for {
		for st := start; st < start+span; st++ {
			if m[st] >= limit {
				start = st + 1
				continue search
			}
		}
		break
	}
	for st := start; st < start+span; st++ {
		m[st]++
	}
	return start
}

// computeLatency rolls the scheduled body up through loop trip counts and
// call sites into a total cycle count.
func (s *Schedule) computeLatency(f *ir.Function) {
	fs := s.Funcs[f]
	if fs == nil || fs.LatencyCycles > 0 {
		return
	}
	// Span occupied by ops whose innermost loop is l (or nil for top level).
	span := func(match func(*ir.Op) bool) int64 {
		minS, maxE := -1, -1
		for _, o := range f.Ops {
			if !match(o) {
				continue
			}
			sl := s.Slots.Get(o)
			if minS < 0 || sl.Start < minS {
				minS = sl.Start
			}
			if sl.End > maxE {
				maxE = sl.End
			}
		}
		if minS < 0 {
			return 1
		}
		return int64(maxE-minS) + 1
	}

	var loopLat func(l *ir.Loop) int64
	loopLat = func(l *ir.Loop) int64 {
		own := span(func(o *ir.Op) bool { return o.Loop == l })
		var kids int64
		for _, k := range l.Kids {
			kids += loopLat(k)
		}
		trips := int64(l.EffectiveTrips())
		if l.Pipelined {
			ii := int64(l.II)
			if ii < 1 {
				ii = 1
			}
			return ii*(trips-1) + own + kids
		}
		return trips * (own + kids)
	}

	total := span(func(o *ir.Op) bool { return o.Loop == nil })
	for _, l := range f.Loops {
		if l.Parent == nil {
			total += loopLat(l)
		}
	}
	// Each call op adds the callee's latency once per sequential
	// invocation. Pipelined loops overlap successive callee executions, so
	// they contribute the callee latency once (pipeline fill) rather than
	// per trip — which is why the paper's de-inlined Face Detection only
	// pays a handful of extra cycles.
	for _, o := range f.Ops {
		if o.Kind != ir.KindCall {
			continue
		}
		for _, callee := range f.Callees {
			if o.Name == "call_"+callee.Name {
				s.computeLatency(callee)
				if cs := s.Funcs[callee]; cs != nil {
					mult := int64(1)
					for l := o.Loop; l != nil; l = l.Parent {
						if !l.Pipelined {
							mult *= int64(l.EffectiveTrips())
						}
					}
					total += mult * cs.LatencyCycles
				}
			}
		}
	}
	fs.LatencyCycles = total
}

// EstimateResources sums the characterized resources of a function's
// operations and arrays — the HLS-report-level estimate used by the Global
// Information features (post-binding sharing is accounted separately).
func EstimateResources(f *ir.Function) Resources {
	var r Resources
	for _, o := range f.Ops {
		r = r.Add(Characterize(o.Kind, o.Bitwidth).Res)
	}
	for _, a := range f.Arrays {
		r = r.Add(ArrayResources(a))
	}
	return r
}

// SortedOps returns the function's ops ordered by (Start, ID) — the order
// binding walks them.
func (s *Schedule) SortedOps(f *ir.Function) []*ir.Op {
	type keyed struct {
		start, id int
		op        *ir.Op
	}
	ks := make([]keyed, len(f.Ops))
	for i, o := range f.Ops {
		ks[i] = keyed{s.Slots.Get(o).Start, o.ID, o}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	ops := make([]*ir.Op, len(ks))
	for i, k := range ks {
		ops[i] = k.op
	}
	return ops
}
