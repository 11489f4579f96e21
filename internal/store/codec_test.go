package store

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/ir"
)

// testModule builds one small design, fast enough for unit tests but with
// multiple functions AND a cross-function call so region centers and the
// call-graph round-trip (op names, callee edges) exercise the codec — the
// decode path re-elaborates the netlist, and a lost call edge changes it.
func testModule() *ir.Module {
	m := ir.NewModule("store_tiny")
	build := func(name string, lanes int, callee *ir.Function) *ir.Function {
		f := m.NewFunction(name)
		b := ir.NewBuilder(f).At(name+".cpp", 1)
		p := b.Port("p", 32)
		a := b.Array("mem", 64, 16, 8)
		var outs []*ir.Op
		for i := 0; i < lanes; i++ {
			b.Line(10 + i)
			v := b.Load(a, nil)
			x := b.OpBits(ir.KindBitSel, 16, p, 16)
			outs = append(outs, b.Op(ir.KindMul, 16, v, x))
		}
		b.Line(55)
		sum := b.ReduceTree(ir.KindAdd, 16, outs)
		if callee != nil {
			sum = b.Op(ir.KindAdd, 16, sum, b.Call(callee, p))
		}
		b.Line(60)
		b.Ret(sum)
		return f
	}
	aux := build("store_tiny_aux", 6, nil)
	m.SetTop(build("store_tiny_top", 12, aux))
	return m
}

var (
	testResOnce sync.Once
	testRes     *flow.Result
	testResErr  error
)

// testResult runs one real flow once and shares the result across tests —
// the codec must round-trip genuine artifacts, not synthetic ones.
func testResult(t testing.TB) *flow.Result {
	t.Helper()
	testResOnce.Do(func() {
		cfg := flow.DefaultConfig()
		cfg.Place.Moves = 3000
		testRes, testResErr = flow.Run(testModule(), cfg)
	})
	if testResErr != nil {
		t.Fatal(testResErr)
	}
	return testRes
}

func TestResultRoundtrip(t *testing.T) {
	res := testResult(t)
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodedResultSize(res); got != len(enc) {
		t.Fatalf("EncodedResultSize = %d, encoded payload is %d bytes", got, len(enc))
	}
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	key := flow.CacheKey(res.Mod, res.Config)
	if err := VerifyResultKey(dec, key); err != nil {
		t.Fatalf("decoded result fails semantic verification: %v", err)
	}
	if !reflect.DeepEqual(dec.Placement.Pos, res.Placement.Pos) {
		t.Error("placement positions differ after roundtrip")
	}
	if dec.Placement.Stats != res.Placement.Stats {
		t.Errorf("placement stats = %+v, want %+v", dec.Placement.Stats, res.Placement.Stats)
	}
	if len(dec.Placement.RegionCenter) != len(res.Placement.RegionCenter) {
		t.Errorf("region centers = %d, want %d",
			len(dec.Placement.RegionCenter), len(res.Placement.RegionCenter))
	}
	if !reflect.DeepEqual(dec.Routing.Map.V, res.Routing.Map.V) ||
		!reflect.DeepEqual(dec.Routing.Map.H, res.Routing.Map.H) {
		t.Error("congestion grids differ after roundtrip")
	}
	if len(dec.Routing.Pins) != len(res.Routing.Pins) {
		t.Fatalf("pins = %d, want %d", len(dec.Routing.Pins), len(res.Routing.Pins))
	}
	for i, p := range res.Routing.Pins {
		d := dec.Routing.Pins[i]
		if d.Net.ID != p.Net.ID || d.Sink != d.Net.Sinks[sinkIndex(d.Net, d.Sink)] ||
			d.Length != p.Length || d.AvgUtil != p.AvgUtil || d.MaxUtil != p.MaxUtil {
			t.Fatalf("pin %d differs: %+v vs %+v", i, d, p)
		}
	}
	if *dec.Timing != *res.Timing {
		t.Errorf("timing report = %+v, want %+v", dec.Timing, res.Timing)
	}
	if dec.Convergence != res.Convergence {
		t.Errorf("convergence = %+v, want %+v", dec.Convergence, res.Convergence)
	}
	if dec.Timings != res.Timings {
		t.Errorf("timings = %+v, want %+v", dec.Timings, res.Timings)
	}
	// The re-derived front half must be usable: cells and nets match.
	if len(dec.Netlist.Cells) != len(res.Netlist.Cells) || len(dec.Netlist.Nets) != len(res.Netlist.Nets) {
		t.Errorf("re-derived netlist: %d cells / %d nets, want %d / %d",
			len(dec.Netlist.Cells), len(dec.Netlist.Nets), len(res.Netlist.Cells), len(res.Netlist.Nets))
	}
}

func TestReencodeIsByteIdentical(t *testing.T) {
	res := testResult(t)
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("decode → re-encode is not byte-identical; the encoding is not canonical")
	}
}

func TestEncodeRejectsIncompleteResults(t *testing.T) {
	res := testResult(t)
	incomplete := []*flow.Result{
		nil,
		{},
		{Mod: res.Mod, Config: res.Config}, // no placement
		{Mod: res.Mod, Config: res.Config, Placement: res.Placement}, // no routing
	}
	for i, r := range incomplete {
		if _, err := EncodeResult(r); err == nil {
			t.Errorf("case %d: EncodeResult accepted an incomplete result", i)
		}
		if size := EncodedResultSize(r); size != 0 {
			t.Errorf("case %d: EncodedResultSize = %d, want 0", i, size)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	res := testResult(t)
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 10, 100, len(enc) / 2, len(enc) - 8, len(enc) - 1} {
		if _, err := DecodeResult(enc[:n]); err == nil {
			t.Errorf("DecodeResult accepted a %d-byte prefix of %d", n, len(enc))
		}
	}
}

func TestDecodeRejectsWrongKindVersionTrailing(t *testing.T) {
	res := testResult(t)
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	kind := append([]byte(nil), enc...)
	kind[0] = 'X'
	if _, err := DecodeResult(kind); err == nil {
		t.Error("DecodeResult accepted a wrong payload kind")
	}
	ver := append([]byte(nil), enc...)
	ver[1] = 99
	if _, err := DecodeResult(ver); err == nil {
		t.Error("DecodeResult accepted an unknown version")
	}
	if _, err := DecodeResult(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("DecodeResult accepted trailing bytes")
	}
}

func TestVerifyResultKeyRejectsMismatch(t *testing.T) {
	res := testResult(t)
	key := flow.CacheKey(res.Mod, res.Config)
	if err := VerifyResultKey(res, key); err != nil {
		t.Fatalf("VerifyResultKey rejected the result's own key: %v", err)
	}
	if err := VerifyResultKey(res, strings.Repeat("0", 64)); err == nil {
		t.Error("VerifyResultKey accepted a foreign key")
	}
	if err := VerifyResultKey(nil, key); err == nil {
		t.Error("VerifyResultKey accepted a nil result")
	}
	// A payload stored under the wrong key must be rejected end to end:
	// decode succeeds (the bytes are fine) but verification fails.
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	other := res.Config
	other.Seed++
	if err := VerifyResultKey(dec, flow.CacheKey(res.Mod, other)); err == nil {
		t.Error("decoded artifact verified against a different config's key")
	}
}
