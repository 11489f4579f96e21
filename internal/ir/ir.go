// Package ir defines the high-level synthesis intermediate representation
// used throughout this repository. It mirrors the post-front-end IR that an
// HLS tool (e.g. Vivado HLS) produces from C/C++: a dataflow graph of typed,
// bit-accurate operations grouped into functions, with loops, arrays and
// synthesis directives (unrolling, pipelining, array partitioning)
// represented explicitly.
//
// The congestion predictor in internal/core consumes this IR; the benchmark
// generators in internal/bench construct it. Source locations attached to
// operations allow congestion reports to point back at the "source code"
// (the generator's synthetic program listing).
package ir

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// OpKind enumerates the operation kinds the characterized operator library
// knows about. The set mirrors the LLVM-style IR vocabulary a typical HLS
// front end emits after bitwidth reduction.
type OpKind int

// Operation kinds. Keep KindCount in sync: the feature extractor emits one
// one-hot slot and one neighbor-count slot per kind.
const (
	KindInvalid OpKind = iota
	KindAdd
	KindSub
	KindMul
	KindDiv
	KindRem
	KindAnd
	KindOr
	KindXor
	KindNot
	KindShl
	KindLShr
	KindAShr
	KindICmp
	KindFAdd
	KindFSub
	KindFMul
	KindFDiv
	KindFCmp
	KindSqrt
	KindSelect
	KindPhi
	KindLoad
	KindStore
	KindTrunc
	KindZExt
	KindSExt
	KindConcat
	KindBitSel
	KindConst
	KindCall
	KindRet
	KindPort

	kindSentinel
)

// KindCount is the number of valid operation kinds (excluding KindInvalid).
const KindCount = int(kindSentinel) - 1

var kindNames = [...]string{
	KindInvalid: "invalid",
	KindAdd:     "add",
	KindSub:     "sub",
	KindMul:     "mul",
	KindDiv:     "div",
	KindRem:     "rem",
	KindAnd:     "and",
	KindOr:      "or",
	KindXor:     "xor",
	KindNot:     "not",
	KindShl:     "shl",
	KindLShr:    "lshr",
	KindAShr:    "ashr",
	KindICmp:    "icmp",
	KindFAdd:    "fadd",
	KindFSub:    "fsub",
	KindFMul:    "fmul",
	KindFDiv:    "fdiv",
	KindFCmp:    "fcmp",
	KindSqrt:    "sqrt",
	KindSelect:  "select",
	KindPhi:     "phi",
	KindLoad:    "load",
	KindStore:   "store",
	KindTrunc:   "trunc",
	KindZExt:    "zext",
	KindSExt:    "sext",
	KindConcat:  "concat",
	KindBitSel:  "bitsel",
	KindConst:   "const",
	KindCall:    "call",
	KindRet:     "ret",
	KindPort:    "port",
}

func (k OpKind) String() string {
	if k <= KindInvalid || k >= kindSentinel {
		return "invalid"
	}
	return kindNames[k]
}

// Valid reports whether k names a real operation kind.
func (k OpKind) Valid() bool { return k > KindInvalid && k < kindSentinel }

// Index returns a dense 0-based index for valid kinds, used by the feature
// extractor for one-hot encoding. It panics on invalid kinds.
func (k OpKind) Index() int {
	if !k.Valid() {
		panic(fmt.Sprintf("ir: OpKind(%d).Index on invalid kind", int(k)))
	}
	return int(k) - 1
}

// KindFromIndex is the inverse of OpKind.Index.
func KindFromIndex(i int) OpKind {
	if i < 0 || i >= KindCount {
		panic(fmt.Sprintf("ir: KindFromIndex(%d) out of range", i))
	}
	return OpKind(i + 1)
}

// AllKinds returns every valid operation kind in declaration order.
func AllKinds() []OpKind {
	ks := make([]OpKind, 0, KindCount)
	for k := KindAdd; k < kindSentinel; k++ {
		ks = append(ks, k)
	}
	return ks
}

// IsFloat reports whether the kind is a floating-point arithmetic operation.
func (k OpKind) IsFloat() bool {
	switch k {
	case KindFAdd, KindFSub, KindFMul, KindFDiv, KindFCmp, KindSqrt:
		return true
	}
	return false
}

// IsMemory reports whether the kind accesses an array.
func (k OpKind) IsMemory() bool { return k == KindLoad || k == KindStore }

// SourceLoc identifies a position in the (synthetic) high-level source.
type SourceLoc struct {
	File string
	Line int
}

func (s SourceLoc) String() string {
	if s.File == "" {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d", s.File, s.Line)
}

// IsZero reports whether the location is unset.
func (s SourceLoc) IsZero() bool { return s.File == "" && s.Line == 0 }

// Operand is a data edge from a defining operation into a consumer. Bits is
// the number of wires the consumer actually taps from the producer's result
// bus; the paper stores this as the dependency-graph edge weight (a consumer
// that takes eight of a 32-bit result contributes weight eight).
type Operand struct {
	Def  *Op
	Bits int
}

// Op is a single IR operation: one node of the per-function dataflow graph.
type Op struct {
	ID       int       // unique within the Module
	Kind     OpKind    //
	Name     string    //
	Bitwidth int       // result width in bits
	Operands []Operand // dataflow inputs

	Func  *Function // owning function
	Loop  *Loop     // innermost enclosing loop, nil at function top level
	Src   SourceLoc // originating source statement
	Array *Array    // referenced array for Load/Store, else nil

	// ReplicaOf is the ID of the operation this one was copied from during
	// loop unrolling, or -1 when the op is an original. ReplicaIdx is the
	// copy number (0 = original position).
	ReplicaOf  int
	ReplicaIdx int

	users []*Op // reverse edges, maintained by the builder
}

// Users returns the operations that consume this op's result, one entry
// per operand edge (an operation using the value twice appears twice). The
// returned slice is owned by the IR; callers must not mutate it.
func (o *Op) Users() []*Op { return o.users }

// NumUsers returns the number of consuming operations.
func (o *Op) NumUsers() int { return len(o.users) }

// IsReplica reports whether the op was produced by loop unrolling.
func (o *Op) IsReplica() bool { return o.ReplicaOf >= 0 }

// FanIn returns the total number of input wires (sum of operand edge
// weights), the paper's fan-in measure.
func (o *Op) FanIn() int {
	n := 0
	for _, e := range o.Operands {
		n += e.Bits
	}
	return n
}

// FanOut returns the total number of output wires consumed by users: for
// each distinct user, the bits that user taps from this op across all of
// its operand edges.
func (o *Op) FanOut() int {
	n := 0
	var seen []*Op
	for _, u := range o.users {
		dup := false
		for _, s := range seen {
			if s == u {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, u)
		for _, e := range u.Operands {
			if e.Def == o {
				n += e.Bits
			}
		}
	}
	return n
}

func (o *Op) String() string {
	return fmt.Sprintf("%%%d = %s i%d (%s)", o.ID, o.Kind, o.Bitwidth, o.Src)
}

// Array models an on-chip memory (BRAM or register bank) declared in a
// function. Partitioning into banks follows the ARRAY_PARTITION directive.
type Array struct {
	Name  string
	Words int // depth
	Bits  int // element width
	Banks int // partition factor; 1 = monolithic, Words = complete

	Func *Function
}

// Primitives returns the paper's memory-primitive figure words*bits*banks.
func (a *Array) Primitives() int { return a.Words * a.Bits * a.Banks }

// WordsPerBank returns the depth of each bank after partitioning.
func (a *Array) WordsPerBank() int {
	if a.Banks <= 0 {
		return a.Words
	}
	n := a.Words / a.Banks
	if a.Words%a.Banks != 0 {
		n++
	}
	return n
}

// Loop models a counted loop with its HLS directives.
type Loop struct {
	ID        int
	Name      string
	TripCount int
	Unroll    int  // unroll factor actually applied (1 = none)
	Pipelined bool //
	II        int  // initiation interval when pipelined

	Func   *Function
	Parent *Loop
	Kids   []*Loop
}

// Depth returns the loop nesting depth (outermost loop = 1).
func (l *Loop) Depth() int {
	d := 0
	for p := l; p != nil; p = p.Parent {
		d++
	}
	return d
}

// EffectiveTrips returns the number of sequential iterations after
// unrolling: ceil(TripCount / Unroll).
func (l *Loop) EffectiveTrips() int {
	u := l.Unroll
	if u < 1 {
		u = 1
	}
	t := l.TripCount / u
	if l.TripCount%u != 0 {
		t++
	}
	if t < 1 {
		t = 1
	}
	return t
}

// Function is one HLS function: a flat dataflow graph plus declared arrays
// and loops. Call ops reference callee functions, which keep their own
// bodies: an inlined configuration is built with the callee's ops already
// in the caller.
type Function struct {
	Name   string
	Module *Module
	Ops    []*Op
	Arrays []*Array
	Loops  []*Loop

	IsTop bool

	// Callers/Callees track the static call graph.
	Callees []*Function
}

// NumOps returns the operation count of the function body.
func (f *Function) NumOps() int { return len(f.Ops) }

// PortOps returns the function's I/O port operations in ID order.
func (f *Function) PortOps() []*Op {
	var ps []*Op
	for _, o := range f.Ops {
		if o.Kind == KindPort {
			ps = append(ps, o)
		}
	}
	return ps
}

// Module is a whole design: a set of functions with a designated top.
type Module struct {
	Name  string
	Funcs []*Function
	Top   *Function

	nextOpID   int
	nextLoopID int
}

// NewModule creates an empty design.
func NewModule(name string) *Module {
	return &Module{Name: name}
}

// NewFunction adds a function to the module. The first function added
// becomes the top unless SetTop overrides it.
func (m *Module) NewFunction(name string) *Function {
	f := &Function{Name: name, Module: m}
	if len(m.Funcs) == 0 {
		f.IsTop = true
		m.Top = f
	}
	m.Funcs = append(m.Funcs, f)
	return f
}

// SetTop designates f as the module's top-level function.
func (m *Module) SetTop(f *Function) {
	if m.Top != nil {
		m.Top.IsTop = false
	}
	m.Top = f
	f.IsTop = true
}

// LiveFuncs returns the module's functions, top first, the rest sorted by
// name. It returns a new slice; m.Funcs keeps its creation order.
func (m *Module) LiveFuncs() []*Function {
	fs := slices.Clone(m.Funcs)
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].IsTop != fs[j].IsTop {
			return fs[i].IsTop
		}
		return fs[i].Name < fs[j].Name
	})
	return fs
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AllOps returns every operation in every function, in ID order.
func (m *Module) AllOps() []*Op {
	// IDs are unique and below the ID counter in a valid module, so putting
	// each op at its ID orders them in one pass. A module that breaks this
	// (Validate would reject it) is sorted instead.
	byID := make([]*Op, m.nextOpID)
	for _, f := range m.Funcs {
		for _, o := range f.Ops {
			if uint(o.ID) >= uint(len(byID)) || byID[o.ID] != nil {
				return m.sortedOps()
			}
			byID[o.ID] = o
		}
	}
	ops := byID[:0]
	for _, o := range byID {
		if o != nil {
			ops = append(ops, o)
		}
	}
	return ops
}

func (m *Module) sortedOps() []*Op {
	ops := make([]*Op, 0, m.NumOps())
	for _, f := range m.Funcs {
		ops = append(ops, f.Ops...)
	}
	slices.SortStableFunc(ops, func(a, b *Op) int { return cmp.Compare(a.ID, b.ID) })
	return ops
}

// NumOps returns the total operation count.
func (m *Module) NumOps() int {
	n := 0
	for _, f := range m.Funcs {
		n += len(f.Ops)
	}
	return n
}

// OpByID returns the operation with the given ID, or nil.
func (m *Module) OpByID(id int) *Op {
	for _, f := range m.Funcs {
		for _, o := range f.Ops {
			if o.ID == id {
				return o
			}
		}
	}
	return nil
}
