package ir

import "fmt"

// Validate checks structural invariants of the module's IR:
//
//   - operation IDs are non-negative and unique module-wide;
//   - every operand edge stays within one function;
//   - def/user lists are mutually consistent;
//   - edge weights are positive and never exceed the producer width;
//   - loops belong to the function that lists them;
//   - the top function exists;
//   - no function reaches itself through its callees (HLS has no
//     recursion, and the scheduler's latency roll-up would not end).
//
// It returns the first violation found, or nil.
func Validate(m *Module) error {
	if m.Top == nil {
		return fmt.Errorf("ir: module %q has no top function", m.Name)
	}
	// seen[id] is the op already holding id; IDs are dense in practice,
	// so one slice sized from the ID counter holds them.
	seen := make([]*Op, m.nextOpID)
	for _, f := range m.Funcs {
		for _, l := range f.Loops {
			if l.Func != f {
				return fmt.Errorf("ir: loop %q listed by %q but owned by %q", l.Name, f.Name, l.Func.Name)
			}
			if l.TripCount < 1 {
				return fmt.Errorf("ir: loop %q has trip count %d", l.Name, l.TripCount)
			}
		}
		for _, o := range f.Ops {
			if o.ID < 0 {
				return fmt.Errorf("ir: op %s has negative ID %d", o.Name, o.ID)
			}
			if o.ID >= len(seen) {
				seen = append(seen, make([]*Op, o.ID+1-len(seen))...)
			}
			if prev := seen[o.ID]; prev != nil {
				return fmt.Errorf("ir: duplicate op ID %d (%s and %s)", o.ID, prev.Name, o.Name)
			}
			seen[o.ID] = o
			if o.Func != f {
				return fmt.Errorf("ir: op %s listed by %q but owned by %q", o.Name, f.Name, o.Func.Name)
			}
			if o.Bitwidth <= 0 {
				return fmt.Errorf("ir: op %s has bitwidth %d", o.Name, o.Bitwidth)
			}
			if o.Kind.IsMemory() && o.Array == nil {
				return fmt.Errorf("ir: memory op %s has no array", o.Name)
			}
			for _, e := range o.Operands {
				if e.Def == nil {
					return fmt.Errorf("ir: op %s has nil operand", o.Name)
				}
				if e.Def.Func != f {
					return fmt.Errorf("ir: op %s uses %s across function boundary (%q -> %q)",
						o.Name, e.Def.Name, e.Def.Func.Name, f.Name)
				}
				if e.Bits <= 0 || e.Bits > e.Def.Bitwidth {
					return fmt.Errorf("ir: op %s edge from %s has weight %d (producer width %d)",
						o.Name, e.Def.Name, e.Bits, e.Def.Bitwidth)
				}
				if !hasUser(e.Def, o) {
					return fmt.Errorf("ir: op %s missing from user list of %s", o.Name, e.Def.Name)
				}
			}
			for _, u := range o.users {
				if !hasOperand(u, o) {
					return fmt.Errorf("ir: stale user %s on op %s", u.Name, o.Name)
				}
			}
		}
	}
	return validateCalls(m)
}

// validateCalls walks the call graph depth-first:
// state 1 marks the functions on the current path, 2 those done.
func validateCalls(m *Module) error {
	state := make(map[*Function]uint8, len(m.Funcs))
	var visit func(f *Function) error
	visit = func(f *Function) error {
		switch state[f] {
		case 1:
			return fmt.Errorf("ir: function %q reaches itself through its callees", f.Name)
		case 2:
			return nil
		}
		state[f] = 1
		for _, c := range f.Callees {
			if err := visit(c); err != nil {
				return err
			}
		}
		state[f] = 2
		return nil
	}
	for _, f := range m.Funcs {
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

func hasUser(def, user *Op) bool {
	for _, u := range def.users {
		if u == user {
			return true
		}
	}
	return false
}

func hasOperand(user, def *Op) bool {
	for _, e := range user.Operands {
		if e.Def == def {
			return true
		}
	}
	return false
}
