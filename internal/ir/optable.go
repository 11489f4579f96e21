package ir

import "fmt"

// OpTable holds one value per operation of a module in a dense slice
// indexed by op ID, the way the HLS front half keys its per-op state
// (schedule slots, bound units, graph nodes, netlist cells). It is sized
// from the module's op-ID counter, so an ID lookup is one bounds check and
// one load instead of a pointer hash.
//
// Each entry keeps the op it was set for. Lookup of an op the table never
// saw — one from another module, or an op that reuses a stored op's ID —
// misses exactly as a map lookup would. The zero OpTable is an empty table
// that grows on Set.
type OpTable[T any] struct {
	ent []opEntry[T]
}

type opEntry[T any] struct {
	op *Op
	v  T
}

// NewOpTable returns an empty table sized for every op ID m has issued.
func NewOpTable[T any](m *Module) OpTable[T] {
	return OpTable[T]{ent: make([]opEntry[T], m.nextOpID)}
}

// Lookup returns the value set for o and whether there is one.
func (t *OpTable[T]) Lookup(o *Op) (T, bool) {
	if uint(o.ID) < uint(len(t.ent)) {
		if e := &t.ent[o.ID]; e.op == o {
			return e.v, true
		}
	}
	var zero T
	return zero, false
}

// Get returns the value set for o, or the zero value when there is none.
func (t *OpTable[T]) Get(o *Op) T {
	v, _ := t.Lookup(o)
	return v
}

// Set stores v for o, replacing any entry at o's ID, and grows the table
// when o's ID is past its end. It panics on a negative ID, which no module
// issues.
func (t *OpTable[T]) Set(o *Op, v T) {
	if o.ID < 0 {
		panic(fmt.Sprintf("ir: OpTable.Set on op %s with negative ID %d", o.Name, o.ID))
	}
	if o.ID >= len(t.ent) {
		t.ent = append(t.ent, make([]opEntry[T], o.ID+1-len(t.ent))...)
	}
	t.ent[o.ID] = opEntry[T]{op: o, v: v}
}
