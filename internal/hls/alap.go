package hls

import "repro/internal/ir"

// ALAP/slack analysis: alongside the ASAP list schedule that drives
// binding, an as-late-as-possible schedule gives each operation's
// mobility — how many control states it could slide without stretching
// the function. Zero-mobility operations form the scheduling-critical
// spine of the design; the synthesis report surfaces them and library
// users exploring directive changes read them the way they read timing
// slack.

// Mobility holds the slack analysis of one function.
type Mobility struct {
	Func *ir.Function
	// ALAPStart is the latest start state of each op under the function's
	// existing overall depth.
	ALAPStart ir.OpTable[int]
	// Slack is ALAPStart - ASAP start, in control states.
	Slack ir.OpTable[int]
}

// ComputeMobility derives the ALAP schedule and per-op slack from an
// existing schedule. Memory-port and resource constraints are not re-run;
// mobility is the pure dependence slack, an upper bound on how far an op
// can move.
func (s *Schedule) ComputeMobility(f *ir.Function) *Mobility {
	fs := s.Funcs[f]
	if fs == nil {
		return nil
	}
	depth := fs.Steps - 1 // last usable state index
	mob := &Mobility{
		Func:      f,
		ALAPStart: ir.NewOpTable[int](f.Module),
		Slack:     ir.NewOpTable[int](f.Module),
	}
	// Walk in reverse creation order (reverse topological).
	for i := len(f.Ops) - 1; i >= 0; i-- {
		o := f.Ops[i]
		slot := s.Slots.Get(o)
		dur := slot.End - slot.Start
		// Latest completion allowed by users: min over users of their ALAP
		// start; sink ops may finish at the function's depth.
		lateEnd := depth
		for _, u := range o.Users() {
			if ua, ok := mob.ALAPStart.Lookup(u); ok {
				// The producer's result must exist when the user starts;
				// chained combinational pairs share a state.
				limit := ua
				us := s.Slots.Get(u)
				if dur > 0 || us.Start != us.End {
					// Sequential boundary: finish strictly before the user
					// starts unless they chain in the same state.
					if us.Start > slot.End {
						limit = ua - 1
					}
				}
				if limit < lateEnd {
					lateEnd = limit
				}
			}
		}
		late := lateEnd - dur
		if late < slot.Start {
			late = slot.Start // never earlier than ASAP
		}
		mob.ALAPStart.Set(o, late)
		mob.Slack.Set(o, late-slot.Start)
	}
	return mob
}

// CriticalOps returns the zero-slack operations in creation order — the
// dependence-critical spine of the function.
func (m *Mobility) CriticalOps() []*ir.Op {
	var out []*ir.Op
	for _, o := range m.Func.Ops {
		if m.Slack.Get(o) == 0 {
			out = append(out, o)
		}
	}
	return out
}

// MeanSlack returns the average mobility in control states.
func (m *Mobility) MeanSlack() float64 {
	if len(m.Func.Ops) == 0 {
		return 0
	}
	total := 0
	for _, o := range m.Func.Ops {
		total += m.Slack.Get(o)
	}
	return float64(total) / float64(len(m.Func.Ops))
}
