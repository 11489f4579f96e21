package place

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/rtl"
)

// testNetlist builds a modest two-function design with DSP and BRAM cells.
func testNetlist(t testing.TB) *rtl.Netlist {
	t.Helper()
	m := ir.NewModule("m")
	top := m.NewFunction("top")
	leaf := m.NewFunction("leaf")
	lb := ir.NewBuilder(leaf)
	lp := lb.Port("x", 16)
	lv := lb.Op(ir.KindMul, 16, lp, lp) // DSP cell
	lb.Ret(lv)
	b := ir.NewBuilder(top)
	p := b.Port("p", 16)
	a := b.Array("big", 2048, 16, 1) // BRAM bank
	var outs []*ir.Op
	for i := 0; i < 20; i++ {
		v := b.Load(a, nil)
		outs = append(outs, b.Op(ir.KindAdd, 16, v, p))
	}
	sum := b.ReduceTree(ir.KindAdd, 16, outs)
	call := b.Call(leaf, sum)
	b.Ret(call)
	s, err := hls.ScheduleModule(m, hls.DefaultClock())
	if err != nil {
		t.Fatal(err)
	}
	return rtl.Elaborate(hls.BindModule(s))
}

func quickOpts() Options {
	o := DefaultOptions()
	o.Moves = 5000
	return o
}

func TestPlaceBoundsAndLegality(t *testing.T) {
	nl := testNetlist(t)
	dev := fpga.XC7Z020()
	pl, err := Place(nl, dev, rand.New(rand.NewSource(1)), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range nl.Cells {
		p := pl.At(c)
		if !dev.InBounds(p) {
			t.Fatalf("cell %s placed out of bounds at %v", c.Name, p)
		}
		kind := dev.KindAt(p.X, p.Y)
		switch classify(c) {
		case classDSP:
			if kind != fpga.TileDSP {
				t.Errorf("DSP cell %s on %v tile", c.Name, kind)
			}
		case classBRAM:
			if kind != fpga.TileBRAM {
				t.Errorf("BRAM cell %s on %v tile", c.Name, kind)
			}
		case classCLB:
			if kind != fpga.TileCLB {
				t.Errorf("CLB cell %s on %v tile", c.Name, kind)
			}
		}
	}
}

func TestPlaceDeterministicPerSeed(t *testing.T) {
	nl := testNetlist(t)
	dev := fpga.XC7Z020()
	p1, err := Place(nl, dev, rand.New(rand.NewSource(7)), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Place(nl, dev, rand.New(rand.NewSource(7)), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Pos {
		if p1.Pos[i] != p2.Pos[i] {
			t.Fatalf("cell %d differs across identical seeds: %v vs %v", i, p1.Pos[i], p2.Pos[i])
		}
	}
	p3, err := Place(nl, dev, rand.New(rand.NewSource(8)), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range p1.Pos {
		if p1.Pos[i] == p3.Pos[i] {
			same++
		}
	}
	if same == len(p1.Pos) {
		t.Error("different seeds produced identical placements")
	}
}

func TestPlaceImprovesWirelength(t *testing.T) {
	nl := testNetlist(t)
	dev := fpga.XC7Z020()
	// Random baseline: initial() without annealing.
	optsNoAnneal := quickOpts()
	optsNoAnneal.Moves = 1
	base, err := Place(nl, dev, rand.New(rand.NewSource(3)), optsNoAnneal)
	if err != nil {
		t.Fatal(err)
	}
	annealed, err := Place(nl, dev, rand.New(rand.NewSource(3)), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if annealed.HPWL() >= base.HPWL() {
		t.Errorf("annealing did not improve HPWL: %v -> %v", base.HPWL(), annealed.HPWL())
	}
}

func TestPlaceEmptyNetlistFails(t *testing.T) {
	if _, err := Place(&rtl.Netlist{}, fpga.XC7Z020(), rand.New(rand.NewSource(1)), Options{}); err == nil {
		t.Fatal("empty netlist must fail")
	}
}

func TestRectDist(t *testing.T) {
	r := rect{x0: 2, y0: 3, x1: 5, y1: 8}
	rec := cellRec{x0: 2, y0: 3, x1: 5, y1: 8}
	cases := []struct {
		p    pt
		want int
	}{
		{pt{3, 4}, 0},
		{pt{2, 3}, 0},
		{pt{0, 4}, 2},
		{pt{6, 9}, 2},
		{pt{0, 0}, 5},
	}
	for _, c := range cases {
		if got := rec.dist(c.p); got != c.want {
			t.Errorf("dist(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if r.width() != 4 || r.height() != 6 {
		t.Error("rect dims wrong")
	}
}

func TestReflect(t *testing.T) {
	n := 10
	for v := -25; v < 35; v++ {
		got := reflect(v, n)
		if got < 0 || got >= n {
			t.Fatalf("reflect(%d, %d) = %d out of range", v, n, got)
		}
	}
	if reflect(3, 10) != 3 {
		t.Error("in-range value must be unchanged")
	}
	if reflect(-1, 10) != 1 || reflect(10, 10) != 8 {
		t.Error("boundary reflection wrong")
	}
	if reflect(5, 1) != 0 {
		t.Error("degenerate size must clamp to 0")
	}
}

// TestPartitionRegionsProperty: regions of the sorted functions tile the
// die without overlap and each function gets one.
func TestPartitionRegionsProperty(t *testing.T) {
	f := func(nFuncs uint8, seed int64) bool {
		n := 1 + int(nFuncs)%9
		rng := rand.New(rand.NewSource(seed))
		var funcs []*ir.Function
		areaOf := make(map[*ir.Function]float64)
		for i := 0; i < n; i++ {
			fn := &ir.Function{Name: string(rune('a' + i))}
			funcs = append(funcs, fn)
			areaOf[fn] = 1 + rng.Float64()*1000
		}
		die := rect{0, 0, 59, 109}
		out := make(map[*ir.Function]rect)
		partitionRegions(funcs, areaOf, die, out)
		if len(out) != n {
			return false
		}
		area := 0
		for _, r := range out {
			if r.x0 < 0 || r.y0 < 0 || r.x1 > 59 || r.y1 > 109 || r.x0 > r.x1 || r.y0 > r.y1 {
				return false
			}
			area += r.width() * r.height()
		}
		// Non-overlap + coverage <=> total area equals die area.
		return area == die.width()*die.height()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCellAreaFloor(t *testing.T) {
	c := &rtl.Cell{Res: hls.Resources{}}
	if cellArea(c) != 1 {
		t.Error("zero-resource cell must still occupy unit area")
	}
}

func TestPlaceContextCancellation(t *testing.T) {
	nl := testNetlist(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PlaceContext(ctx, nl, fpga.XC7Z020(), rand.New(rand.NewSource(1)), quickOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestPlaceCapacityOverflow(t *testing.T) {
	nl := testNetlist(t)
	tiny := *fpga.XC7Z020()
	tiny.Cols, tiny.Rows = 1, 1
	tiny.DSPCols, tiny.BRAMCols = nil, nil
	_, err := Place(nl, &tiny, rand.New(rand.NewSource(1)), quickOpts())
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("got %v, want ErrCapacity", err)
	}
}

func TestPlaceCapacityFitsRealDevice(t *testing.T) {
	if err := checkCapacity(testNetlist(t), fpga.XC7Z020()); err != nil {
		t.Fatalf("real design rejected: %v", err)
	}
}

// TestMetropolisMatchesExp checks that the annealer's Exp-free reject
// decides every case exactly as u < math.Exp(x) with x = -y: random pairs
// over many scales of y, u at the ends of [0, 1), x just below zero, at
// Exp's underflow edge and at -Inf, subnormal results, and u within a few
// ulps of math.Exp(x), where a bound that is too tight rejects a move Exp
// accepts. A bound above e^y fails it (1+y+y² or 1+y+y²/2+y³ in place of
// 1+y+y²/2), and so does a negative margin (1-1e-15). Two weaker variants
// pass and cannot be made to fail, because they are still exact: dropping
// y²/2 leaves 1+y ≤ e^y, a valid bound that only decides fewer moves; and
// margin 0 would need u·(1+y+y²/2) to round above 1 while u < Exp(-y),
// which 60M probes of u one to three ulps below Exp(-y), y in
// [1e-12, 1], never produced. The 1e-9 margin makes the proof independent
// of rounding rather than fixing a known failure.
func TestMetropolisMatchesExp(t *testing.T) {
	check := func(u, x float64) {
		t.Helper()
		if got, want := metropolis(u, -x), u < math.Exp(x); got != want {
			t.Fatalf("metropolis(u=%v, y=%v) = %v, u < Exp(%v) = %v", u, -x, got, x, want)
		}
	}
	// near probes u at Exp(x) and at its ulp neighbours on both sides.
	near := func(x float64) {
		t.Helper()
		e := math.Exp(x)
		for _, u := range []float64{e, math.Nextafter(e, 0), math.Nextafter(e, 2),
			math.Nextafter(math.Nextafter(e, 2), 2), e * (1 + 1e-12), e * (1 - 1e-12),
			e * (1 + 2e-9), e * (1 + 5e-10)} {
			if u < 1 {
				check(u, x)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		var y float64
		switch i % 4 {
		case 0:
			y = rng.Float64() // the annealer's common range
		case 1:
			y = 50 * rng.Float64()
		case 2:
			y = rng.ExpFloat64()
		default:
			y = math.Pow(10, -300+310*rng.Float64()) // 1e-300 .. 1e10
		}
		check(rng.Float64(), -y)
		near(-y)
	}
	for _, x := range []float64{-5e-324, -1e-300, -0x1p-60, -0x1p-53, -1e-16, -1e-12, -1e-9,
		-1e-6, -1e-3, -0.5, -1, -2, -30, -700, -708.5, -745, -745.1332191019411, -745.2,
		-1e308, math.Inf(-1), math.NaN()} {
		for _, u := range []float64{0, 0x1p-1074, 1e-320, 1e-310, 1e-300, 0.5, 1 - 0x1p-53} {
			check(u, x)
		}
		near(x)
	}
	// Subnormal results: Exp(x) below 2^-1022 for x in (-745.13, -708.4).
	for i := 0; i < 20000; i++ {
		x := -708.4 - 36.7*rng.Float64()
		if e := math.Exp(x); e == 0 || e >= 0x1p-1022 {
			t.Fatalf("Exp(%v) = %v is not subnormal", x, e)
		}
		check(math.Exp(x)*2*rng.Float64(), x)
		near(x)
	}
}
