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
// ParseText must never panic, and must agree with the line-at-a-time
// reference parser, ParseTextScanner: both accept the same inputs, and an
// accepted input writes back the same text from both. The corpus starts
// from every catalog design's text and from inputs that once crashed or
// fooled the parser.
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
		"module m\r\nfunc f top\r\n  %0 = port \"x\" i8\r\n  %1 = add i8 %0 %0",
		"module m\n\n# c\nfunc f top\n  %5 = port \"x\" i8\n  %2 = not i8 %5\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ir.ParseText(bytes.NewReader(in))
		ref, refErr := ir.ParseTextScanner(bytes.NewReader(in))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ParseText error %v, reference parser error %v", err, refErr)
		}
		if err != nil {
			return
		}
		var first, want bytes.Buffer
		if err := ir.WriteText(&first, m); err != nil {
			t.Fatal(err)
		}
		if err := ir.WriteText(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), want.Bytes()) {
			t.Fatalf("ParseText writes back\n%s\n--- the reference parser ---\n%s", first.Bytes(), want.Bytes())
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
