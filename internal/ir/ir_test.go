package ir

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[OpKind]string{
		KindAdd:     "add",
		KindMul:     "mul",
		KindICmp:    "icmp",
		KindPort:    "port",
		KindInvalid: "invalid",
		OpKind(99):  "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestKindCount(t *testing.T) {
	if KindCount != 32 {
		t.Fatalf("KindCount = %d, want 32 (feature layout depends on it)", KindCount)
	}
	if len(AllKinds()) != KindCount {
		t.Fatalf("AllKinds() has %d entries, want %d", len(AllKinds()), KindCount)
	}
}

func TestKindIndexRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		if !k.Valid() {
			t.Errorf("kind %v reported invalid", k)
		}
		if got := KindFromIndex(k.Index()); got != k {
			t.Errorf("KindFromIndex(Index(%v)) = %v", k, got)
		}
	}
}

func TestKindIndexPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KindInvalid.Index() did not panic")
		}
	}()
	_ = KindInvalid.Index()
}

func TestKindClassifiers(t *testing.T) {
	if !KindFAdd.IsFloat() || !KindSqrt.IsFloat() {
		t.Error("float kinds not classified as float")
	}
	if KindAdd.IsFloat() {
		t.Error("add classified as float")
	}
	if !KindLoad.IsMemory() || !KindStore.IsMemory() {
		t.Error("memory kinds not classified as memory")
	}
	if KindAdd.IsMemory() {
		t.Error("add classified as memory")
	}
}

func TestSourceLoc(t *testing.T) {
	l := SourceLoc{File: "a.cpp", Line: 12}
	if l.String() != "a.cpp:12" {
		t.Errorf("String() = %q", l.String())
	}
	var zero SourceLoc
	if !zero.IsZero() {
		t.Error("zero loc not IsZero")
	}
	if zero.String() != "<unknown>" {
		t.Errorf("zero loc String() = %q", zero.String())
	}
}

func TestModuleTopSelection(t *testing.T) {
	m := NewModule("m")
	f1 := m.NewFunction("first")
	f2 := m.NewFunction("second")
	if m.Top != f1 || !f1.IsTop {
		t.Fatal("first function should be top by default")
	}
	m.SetTop(f2)
	if m.Top != f2 || f1.IsTop || !f2.IsTop {
		t.Fatal("SetTop did not transfer top status")
	}
}

func TestFanInFanOut(t *testing.T) {
	m := NewModule("m")
	f := m.NewFunction("f")
	b := NewBuilder(f)
	a := b.Port("a", 32)
	c := b.Port("c", 32)
	sum := b.Op(KindAdd, 32, a, c)
	// A consumer tapping only 8 of sum's 32 bits.
	tap := b.OpBits(KindBitSel, 8, sum, 8)
	full := b.Op(KindNot, 32, sum)

	if got := sum.FanIn(); got != 64 {
		t.Errorf("sum.FanIn() = %d, want 64", got)
	}
	if got := sum.FanOut(); got != 8+32 {
		t.Errorf("sum.FanOut() = %d, want 40", got)
	}
	if sum.NumUsers() != 2 {
		t.Errorf("sum.NumUsers() = %d, want 2", sum.NumUsers())
	}
	_ = tap
	_ = full
}

func TestOpString(t *testing.T) {
	m := NewModule("m")
	f := m.NewFunction("f")
	b := NewBuilder(f).At("x.cpp", 3)
	o := b.Op(KindAdd, 16, b.Const(16), b.Const(16))
	s := o.String()
	for _, want := range []string{"add", "i16", "x.cpp:3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Op.String() = %q missing %q", s, want)
		}
	}
}

func TestModuleQueries(t *testing.T) {
	m := NewModule("m")
	f := m.NewFunction("top")
	g := m.NewFunction("leaf")
	bf := NewBuilder(f)
	bg := NewBuilder(g)
	p := bg.Port("in", 8)
	bg.Ret(bg.Op(KindNot, 8, p))
	a := bf.Port("x", 8)
	bf.Ret(a)

	if m.NumOps() != 5 {
		t.Fatalf("NumOps = %d, want 5", m.NumOps())
	}
	ops := m.AllOps()
	if len(ops) != 5 {
		t.Fatalf("AllOps len = %d", len(ops))
	}
	for i := 1; i < len(ops); i++ {
		if ops[i-1].ID >= ops[i].ID {
			t.Fatal("AllOps not sorted by ID")
		}
	}
	if m.OpByID(p.ID) != p {
		t.Error("OpByID failed")
	}
	if m.OpByID(99999) != nil {
		t.Error("OpByID(bogus) != nil")
	}
	if m.FuncByName("leaf") != g || m.FuncByName("nope") != nil {
		t.Error("FuncByName failed")
	}
	live := m.LiveFuncs()
	if len(live) != 2 || live[0] != f {
		t.Fatalf("LiveFuncs = %v (top must come first)", live)
	}
	if m.NumOps() != len(f.Ops)+len(g.Ops) {
		t.Errorf("NumOps = %d, want %d", m.NumOps(), len(f.Ops)+len(g.Ops))
	}
}

func TestArrayHelpers(t *testing.T) {
	a := &Array{Name: "a", Words: 100, Bits: 16, Banks: 8}
	if a.Primitives() != 100*16*8 {
		t.Errorf("Primitives = %d", a.Primitives())
	}
	if a.WordsPerBank() != 13 {
		t.Errorf("WordsPerBank = %d, want ceil(100/8)=13", a.WordsPerBank())
	}
	b := &Array{Words: 64, Bits: 8, Banks: 0}
	if b.WordsPerBank() != 64 {
		t.Errorf("WordsPerBank with 0 banks = %d", b.WordsPerBank())
	}
}

func TestLoopHelpers(t *testing.T) {
	outer := &Loop{TripCount: 100, Unroll: 8}
	if outer.EffectiveTrips() != 13 {
		t.Errorf("EffectiveTrips = %d, want 13", outer.EffectiveTrips())
	}
	inner := &Loop{TripCount: 10, Unroll: 1, Parent: outer}
	if inner.Depth() != 2 || outer.Depth() != 1 {
		t.Error("Depth wrong")
	}
	z := &Loop{TripCount: 1, Unroll: 5}
	if z.EffectiveTrips() != 1 {
		t.Errorf("EffectiveTrips unroll>trips = %d", z.EffectiveTrips())
	}
}

func TestPortOps(t *testing.T) {
	m := NewModule("m")
	f := m.NewFunction("f")
	b := NewBuilder(f)
	p1 := b.Port("a", 8)
	b.Const(8)
	p2 := b.Port("b", 8)
	ports := f.PortOps()
	if len(ports) != 2 || ports[0] != p1 || ports[1] != p2 {
		t.Fatalf("PortOps = %v", ports)
	}
}
