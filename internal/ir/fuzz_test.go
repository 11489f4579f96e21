package ir_test

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
)

// FuzzParseText feeds ParseText arbitrary bytes. Every input must either
// be rejected with an error or parse into a module whose text form is
// canonical: WriteText → ParseText → WriteText reproduces it byte for byte.
// ParseText must never panic. The corpus starts from every catalog design's
// text and from inputs that once crashed or fooled the parser.
func FuzzParseText(f *testing.F) {
	cat := bench.Catalog()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var buf bytes.Buffer
		if err := ir.WriteText(&buf, cat[name](bench.WithDirectives())); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		"module m\nfunc\n",
		"module m\nfunc f top\n  array\n",
		"module m\nfunc f top\n  loop 0\n",
		"module m\nfunc f top\n  %0 = add i8 replica=3/1x\n",
		"module m\nfunc f top\n  %0 = port \"a\\\"b\" i8\n",
		"module m\nfunc f top\n  loop 0 a trips=2 parent=1\n  loop 1 b trips=2 parent=0\n",
		"module m\nfunc f top calls=f\n  %0 = port \"x\" i8\n  %1 = call \"call_f\" i8 %0\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ir.ParseText(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := ir.WriteText(&first, m); err != nil {
			t.Fatal(err)
		}
		back, err := ir.ParseText(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("accepted input writes text that does not parse: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := ir.WriteText(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("text form not canonical:\n%s\n--- then ---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
