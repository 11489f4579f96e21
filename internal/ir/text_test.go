package ir

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// textRoundTripModule builds a module exercising every serialized feature:
// ports with names, arrays, nested loops with directives, partial-bus taps,
// replica marks and source locations.
func textRoundTripModule() *Module {
	m := NewModule("rt")
	leaf := m.NewFunction("leaf")
	lb := NewBuilder(leaf).At("leaf.cpp", 2)
	lp := lb.Port("x", 32)
	lv := lb.OpBits(KindBitSel, 8, lp, 8)
	lb.Ret(lb.Op(KindNot, 8, lv))

	top := m.NewFunction("top")
	m.SetTop(top)
	b := NewBuilder(top).At("top.cpp", 5)
	p := b.Port("in", 32)
	a := b.Array("buf", 32, 16, 4)
	b.EnterLoop("outer", 100)
	var vals []*Op
	b.UnrolledLoop("inner", 64, 2, func(copy int) {
		v := b.Load(a, nil)
		vals = append(vals, b.Op(KindAdd, 16, v, b.OpBits(KindTrunc, 16, p, 16)))
	})
	b.ExitLoop()
	b.PipelinedLoop("pipe", 16, 2, func() {
		b.Store(a, vals[0], nil)
	})
	call := b.Call(leaf, p)
	sum := b.ReduceTree(KindAdd, 16, vals)
	b.Ret(b.Op(KindXor, 16, sum, b.OpBits(KindTrunc, 16, call, 16)))
	return m
}

func TestTextRoundTrip(t *testing.T) {
	m := textRoundTripModule()
	var buf bytes.Buffer
	if err := WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\ninput:\n%s", err, buf.String())
	}
	if back.Name != m.Name {
		t.Errorf("module name %q", back.Name)
	}
	if back.NumOps() != m.NumOps() {
		t.Fatalf("ops %d != %d", back.NumOps(), m.NumOps())
	}
	if back.Top == nil || back.Top.Name != "top" {
		t.Fatal("top function lost")
	}
	for _, o := range m.AllOps() {
		bo := back.OpByID(o.ID)
		if bo == nil {
			t.Fatalf("op %%%d missing after round trip", o.ID)
		}
		if bo.Kind != o.Kind || bo.Bitwidth != o.Bitwidth {
			t.Fatalf("op %%%d signature changed: %v/%d vs %v/%d",
				o.ID, bo.Kind, bo.Bitwidth, o.Kind, o.Bitwidth)
		}
		if bo.Src != o.Src {
			t.Errorf("op %%%d src %v != %v", o.ID, bo.Src, o.Src)
		}
		if bo.FanIn() != o.FanIn() || bo.NumUsers() != o.NumUsers() {
			t.Errorf("op %%%d connectivity changed", o.ID)
		}
		if (bo.Loop == nil) != (o.Loop == nil) {
			t.Errorf("op %%%d loop membership changed", o.ID)
		}
		if bo.ReplicaOf != o.ReplicaOf || bo.ReplicaIdx != o.ReplicaIdx {
			t.Errorf("op %%%d replica mark changed", o.ID)
		}
		if bo.Name != o.Name {
			t.Errorf("op %%%d name %q != %q", o.ID, bo.Name, o.Name)
		}
	}
	// Call-graph edges survive: rtl elaboration resolves callees through
	// them, so losing an edge silently changes the netlist.
	if len(back.Top.Callees) != 1 || back.Top.Callees[0].Name != "leaf" {
		t.Errorf("call-graph edge lost: %v", back.Top.Callees)
	}
	// A second round trip is bit-identical (canonical form).
	var buf2 bytes.Buffer
	if err := WriteText(&buf2, back); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("text form not canonical across round trips")
	}
	// Loops survive with directives.
	var pipe *Loop
	for _, l := range back.Top.Loops {
		if l.Name == "pipe" {
			pipe = l
		}
	}
	if pipe == nil || !pipe.Pipelined || pipe.II != 2 || pipe.TripCount != 16 {
		t.Errorf("pipelined loop lost: %+v", pipe)
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"op before func":  "module m\n  %0 = add i8\n",
		"unknown kind":    "module m\nfunc f top\n  %0 = zorp i8\n",
		"forward operand": "module m\nfunc f top\n  %0 = add i8 %1\n",
		"unknown array":   "module m\nfunc f top\n  %0 = load i8 mem=nope\n",
		"bad width":       "module m\nfunc f top\n  %0 = add ix\n",
		"bad directive":   "module m\nfunc f top\n  garbage here\n",
		"unknown callee":  "module m\nfunc f top calls=ghost\n  %0 = add i8\n",
		"bad func attr":   "module m\nfunc f top zorp\n  %0 = add i8\n",
		"func no name":    "module m\nfunc\n",
		"array no name":   "module m\nfunc f top\n  array\n",
		"loop no name":    "module m\nfunc f top\n  loop 0\n",
		"replica suffix":  "module m\nfunc f top\n  %0 = add i8 replica=3/1x\n",
		"replica no idx":  "module m\nfunc f top\n  %0 = add i8 replica=3\n",
		"negative op ID":  "module m\nfunc f top\n  %-1 = add i8\n",
		"sparse op IDs":   "module m\nfunc f top\n  %999999999 = add i8\n",
		"bad op name":     "module m\nfunc f top\n  %0 = port \"a\\x20b\" i8\n",
		"second module":   "module m\nfunc f top\nmodule n\n",
		"duplicate func":  "module m\nfunc f top\nfunc f\n",
		"duplicate loop":  "module m\nfunc f top\n  loop 0 a trips=2\n  loop 0 b trips=2\n",
		"loop cycle":      "module m\nfunc f top\n  loop 0 a trips=2 parent=1\n  loop 1 b trips=2 parent=0\n",
		"foreign loop":    "module m\nfunc g\n  loop 0 a trips=2\nfunc f top\n  %0 = add i8 loop=0\n",
		"foreign parent":  "module m\nfunc g\n  loop 0 a trips=2\nfunc f top\n  loop 1 b trips=2 parent=0\n",
		"recursive call":  "module m\nfunc f top calls=g\n  %0 = add i8\nfunc g calls=f\n  %1 = add i8\n",
	}
	for name, input := range cases {
		if _, err := ParseText(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAppendFieldsMatchesStringsFields(t *testing.T) {
	for _, s := range []string{
		"", "a", "  a  b\tc\r\n", "%1 = add i8 %0 @f.cpp:3",
		"a\u00a0b c", "\u2003x\u3000y ", "caf\u00e9 \xff z", "\v\f",
	} {
		prefix := []string{"kept"}
		got := appendFields(prefix, s)
		want := append([]string{"kept"}, strings.Fields(s)...)
		if strings.Join(got, "|") != strings.Join(want, "|") || len(got) != len(want) {
			t.Errorf("appendFields(%q) = %q, want %q", s, got, want)
		}
	}
}

// ParseText reads its input into one string sized by the reader and sizes
// its slabs by the op lines: a small module must not pay for a
// preallocated megabyte.
func TestParseTextSmallModuleAllocatesLittle(t *testing.T) {
	const text = "module m\nfunc f top\n  %0 = port \"x\" i8\n"
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ParseText(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("parsing a 3-line module allocated %d B, want under 64 KiB", per)
	}
}

// TestParseTextMatchesScannerParser runs the line forms a hand-edited or
// foreign file has through ParseText and the reference ParseTextScanner:
// both must accept or reject each input, and write back the same text.
// Lines of maxLine bytes or more are rejected, with or without a newline.
func TestParseTextMatchesScannerParser(t *testing.T) {
	const head = "module m\nfunc f top\n  %0 = port \"x\" i8\n"
	long := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	cases := []struct {
		name   string
		in     string
		accept bool
	}{
		{"crlf lines", "module m\r\nfunc f top\r\n  %0 = port \"x\" i8\r\n  %1 = add i8 %0 %0\r\n", true},
		{"no final newline", head + "  %1 = not i8 %0", true},
		{"blank and comment lines", "\n# a comment\nmodule m\n\n   \nfunc f top\n  # indented\n  %0 = port \"x\" i8\n\n", true},
		{"ids out of line order", head + "  %7 = not i8 %0\n  %3 = add i8 %7 %0\n", true},
		{"id past the line count", head + "  %900 = not i8 %0\n  %901 = add i8 %900 %0\n", true},
		{"short op line", head + "  %1 = or\n", false},
		{"longest line", head + long(maxLine-1) + "\n", true},
		{"longest last line", head + long(maxLine-1), true},
		{"line too long", head + long(maxLine) + "\n", false},
		{"last line too long", head + long(maxLine), false},
	}
	for _, c := range cases {
		m, err := ParseText(strings.NewReader(c.in))
		ref, refErr := ParseTextScanner(strings.NewReader(c.in))
		if (err == nil) != c.accept || (refErr == nil) != c.accept {
			t.Errorf("%s: ParseText error %v, reference error %v, want accepted %v", c.name, err, refErr, c.accept)
			continue
		}
		if err != nil {
			continue
		}
		var got, want bytes.Buffer
		if err := WriteText(&got, m); err != nil {
			t.Fatal(err)
		}
		if err := WriteText(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: ParseText writes back\n%s\n--- the reference parser ---\n%s", c.name, got.Bytes(), want.Bytes())
		}
	}
}

func TestTextBenchmarkDesignRoundTrips(t *testing.T) {
	// The serializer must handle a real benchmark-sized design.
	m := textRoundTripModule()
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := WriteText(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		m = back
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
}
