package ir

import (
	"strings"
	"testing"
)

func validModule(t *testing.T) (*Module, *Function, *Builder) {
	t.Helper()
	m := NewModule("m")
	f := m.NewFunction("f")
	b := NewBuilder(f)
	p := b.Port("p", 8)
	b.Ret(b.Op(KindNot, 8, p))
	if err := Validate(m); err != nil {
		t.Fatalf("baseline module invalid: %v", err)
	}
	return m, f, b
}

func TestValidateDetectsNoTop(t *testing.T) {
	m := &Module{Name: "empty"}
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "no top") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsDuplicateIDs(t *testing.T) {
	m, f, _ := validModule(t)
	f.Ops[1].ID = f.Ops[0].ID
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "duplicate op ID") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsNegativeID(t *testing.T) {
	m, f, _ := validModule(t)
	f.Ops[0].ID = -3
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "negative ID") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsRecursiveCalls(t *testing.T) {
	m, f, _ := validModule(t)
	g := m.NewFunction("g")
	NewBuilder(g).Port("q", 8)
	f.Callees = append(f.Callees, g)
	g.Callees = append(g.Callees, f)
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "reaches itself") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsCrossFunctionEdge(t *testing.T) {
	m, _, _ := validModule(t)
	g := m.NewFunction("g")
	gb := NewBuilder(g)
	gp := gb.Port("gp", 8)
	// Forge an edge from f's op into g.
	fOp := m.Top.Ops[0]
	bad := gb.Op(KindNot, 8, gp)
	bad.Operands = append(bad.Operands, Operand{Def: fOp, Bits: 8})
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "across function boundary") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsBadEdgeWeight(t *testing.T) {
	m, f, _ := validModule(t)
	ret := f.Ops[len(f.Ops)-1]
	ret.Operands[0].Bits = 100 // wider than the producer
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsMissingUserEntry(t *testing.T) {
	m, f, _ := validModule(t)
	p := f.Ops[0]
	p.users = nil // corrupt the reverse edges
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "missing from user list") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsStaleUser(t *testing.T) {
	m, f, b := validModule(t)
	stranger := b.Const(8)
	f.Ops[0].users = append(f.Ops[0].users, stranger)
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "stale user") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsMemoryOpWithoutArray(t *testing.T) {
	m, _, b := validModule(t)
	a := b.Array("mem", 8, 8, 1)
	ld := b.Load(a, nil)
	ld.Array = nil
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "no array") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsBadBitwidth(t *testing.T) {
	m, f, _ := validModule(t)
	f.Ops[0].Bitwidth = 0
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "bitwidth") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDetectsBadLoop(t *testing.T) {
	m, f, b := validModule(t)
	l := b.EnterLoop("l", 0)
	b.ExitLoop()
	_ = l
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "trip count") {
		t.Fatalf("err = %v", err)
	}
	_ = f
}
