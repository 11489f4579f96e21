package place

// Equivalence suite for the placer's fast path: a frozen copy of the
// original kernels — per-net pin lists and boxes for every net, a
// recompute of every affected net's box from scratch on every proposed
// move AND again on every commit, the KindAt walk for legal columns, the
// modulo reflection and the plain math.Exp Metropolis test — drives the
// same annealing loop on its own state, and the resulting placements must
// be byte-identical to the optimized placer for fixed seeds. The reference
// shares no state, table or proposal code with production (only the
// unchanged cell classification, cell area, region bisection and overflow
// penalty), so it stays a golden baseline: if an optimization ever changes
// a trajectory, these tests fail instead of silently shifting every
// congestion label downstream.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/rtl"
)

// refBox is the reference's net bounding box (no support counts).
type refBox struct {
	xmin, xmax, ymin, ymax int
}

func (b refBox) hpwl() float64 {
	return float64((b.xmax - b.xmin) + (b.ymax - b.ymin))
}

// refState is the original annealer state, one slice per field.
type refState struct {
	nl   *rtl.Netlist
	dev  *fpga.Device
	opts Options

	pos       []fpga.XY
	class     []cellClass
	area      []float64
	attract   []rect
	clusterWt []float64
	netCells  [][]int
	weights   []float64
	boxes     []refBox
	cellNets  [][]int
	binsX     int
	binOcc    []float64
	binCap    []float64

	regionCenter map[*ir.Function]fpga.XY
}

func refNewState(nl *rtl.Netlist, dev *fpga.Device, opts Options) *refState {
	st := &refState{
		nl:           nl,
		dev:          dev,
		opts:         opts,
		pos:          make([]fpga.XY, len(nl.Cells)),
		class:        make([]cellClass, len(nl.Cells)),
		area:         make([]float64, len(nl.Cells)),
		attract:      make([]rect, len(nl.Cells)),
		cellNets:     make([][]int, len(nl.Cells)),
		clusterWt:    make([]float64, len(nl.Cells)),
		regionCenter: make(map[*ir.Function]fpga.XY),
	}
	for _, c := range nl.Cells {
		st.class[c.ID] = classify(c)
		st.area[c.ID] = cellArea(c)
		st.clusterWt[c.ID] = math.Sqrt(st.area[c.ID])
	}
	for _, n := range nl.Nets {
		seen := map[int]bool{n.Driver.ID: true}
		cells := []int{n.Driver.ID}
		for _, s := range n.Sinks {
			if !seen[s.Cell.ID] {
				seen[s.Cell.ID] = true
				cells = append(cells, s.Cell.ID)
			}
		}
		if len(cells) < 2 {
			continue
		}
		idx := len(st.netCells)
		st.netCells = append(st.netCells, cells)
		st.weights = append(st.weights, float64(n.Wires()))
		for _, ci := range cells {
			st.cellNets[ci] = append(st.cellNets[ci], idx)
		}
	}
	st.boxes = make([]refBox, len(st.netCells))
	st.binsX = (dev.Cols + opts.BinSize - 1) / opts.BinSize
	binsY := (dev.Rows + opts.BinSize - 1) / opts.BinSize
	st.binOcc = make([]float64, st.binsX*binsY)
	st.binCap = make([]float64, st.binsX*binsY)
	perCLB := float64(dev.TileLUT) + 0.5*float64(dev.TileFF)
	for x := 0; x < dev.Cols; x++ {
		for y := 0; y < dev.Rows; y++ {
			if dev.KindAt(x, y) == fpga.TileCLB {
				st.binCap[st.binIdx(x, y)] += perCLB
			}
		}
	}
	return st
}

func (st *refState) binIdx(x, y int) int {
	return (y/st.opts.BinSize)*st.binsX + x/st.opts.BinSize
}

func refDist(r rect, p fpga.XY) int {
	d := 0
	if p.X < r.x0 {
		d += r.x0 - p.X
	} else if p.X > r.x1 {
		d += p.X - r.x1
	}
	if p.Y < r.y0 {
		d += r.y0 - p.Y
	} else if p.Y > r.y1 {
		d += p.Y - r.y1
	}
	return d
}

func (st *refState) initial(rng *rand.Rand) {
	funcs := st.nl.Mod.LiveFuncs()
	areaOf := make(map[*ir.Function]float64)
	for _, c := range st.nl.Cells {
		areaOf[c.Func] += st.area[c.ID]
	}
	for ni, cells := range st.netCells {
		for _, ci := range cells {
			areaOf[st.nl.Cells[ci].Func] += st.weights[ni]
		}
	}
	sorted := append([]*ir.Function(nil), funcs...)
	sort.Slice(sorted, func(i, j int) bool {
		if areaOf[sorted[i]] != areaOf[sorted[j]] {
			return areaOf[sorted[i]] > areaOf[sorted[j]]
		}
		return sorted[i].Name < sorted[j].Name
	})
	regions := make(map[*ir.Function]rect, len(sorted))
	die := rect{0, 0, st.dev.Cols - 1, st.dev.Rows - 1}
	partitionRegions(sorted, areaOf, die, regions)
	for _, f := range funcs {
		rg, ok := regions[f]
		if !ok {
			rg = die
		}
		st.regionCenter[f] = rg.center()
		for _, c := range st.nl.Cells {
			if c.Func != f {
				continue
			}
			st.attract[c.ID] = rg
			y := rg.y0 + rng.Intn(rg.height())
			x := st.legalX(c.ID, rg.x0+rng.Intn(rg.width()))
			st.pos[c.ID] = fpga.XY{X: x, Y: y}
		}
	}
	for ni := range st.boxes {
		st.boxes[ni] = refComputeBox(st.netCells[ni], st.pos)
	}
	for _, c := range st.nl.Cells {
		st.binOcc[st.binIdx(st.pos[c.ID].X, st.pos[c.ID].Y)] += st.area[c.ID]
	}
}

func (st *refState) legalX(cell int, x int) int {
	if x < 0 {
		x = 0
	}
	if x >= st.dev.Cols {
		x = st.dev.Cols - 1
	}
	switch st.class[cell] {
	case classDSP:
		return st.dev.DSPColNearest(x)
	case classBRAM:
		return st.dev.BRAMColNearest(x)
	}
	for st.dev.KindAt(x, 0) != fpga.TileCLB {
		x++
		if x >= st.dev.Cols {
			x = 0
		}
	}
	return x
}

func refReflect(v, n int) int {
	if n <= 1 {
		return 0
	}
	period := 2 * (n - 1)
	v %= period
	if v < 0 {
		v += period
	}
	if v >= n {
		v = period - v
	}
	return v
}

func (st *refState) randomTarget(rng *rand.Rand, ci, window int) fpga.XY {
	cur := st.pos[ci]
	x := refReflect(cur.X+rng.Intn(2*window+1)-window, st.dev.Cols)
	y := refReflect(cur.Y+rng.Intn(2*window+1)-window, st.dev.Rows)
	return fpga.XY{X: st.legalX(ci, x), Y: y}
}

// refComputeBox is the original net recompute.
func refComputeBox(cells []int, pos []fpga.XY) refBox {
	first := pos[cells[0]]
	b := refBox{xmin: first.X, xmax: first.X, ymin: first.Y, ymax: first.Y}
	for _, ci := range cells[1:] {
		p := pos[ci]
		b.xmin = min(b.xmin, p.X)
		b.xmax = max(b.xmax, p.X)
		b.ymin = min(b.ymin, p.Y)
		b.ymax = max(b.ymax, p.Y)
	}
	return b
}

// moveDelta is the original moveDelta: flip the position, recompute every
// affected net.
func (st *refState) moveDelta(ci int, np fpga.XY) float64 {
	op := st.pos[ci]
	dWL := 0.0
	for _, ni := range st.cellNets[ci] {
		old := st.boxes[ni].hpwl()
		st.pos[ci] = np
		b2 := refComputeBox(st.netCells[ni], st.pos)
		st.pos[ci] = op
		dWL += st.weights[ni] * (b2.hpwl() - old)
	}
	ob, nbn := st.binIdx(op.X, op.Y), st.binIdx(np.X, np.Y)
	dDen := 0.0
	if ob != nbn {
		a := st.area[ci]
		dDen = overflow2(st.binOcc[ob]-a, st.binCap[ob]) - overflow2(st.binOcc[ob], st.binCap[ob]) +
			overflow2(st.binOcc[nbn]+a, st.binCap[nbn]) - overflow2(st.binOcc[nbn], st.binCap[nbn])
	}
	dClu := st.clusterWt[ci] * float64(refDist(st.attract[ci], np)-refDist(st.attract[ci], op))
	return dWL + st.opts.DensityWeight*dDen + st.opts.ClusterWeight*dClu
}

// commit is the original commit: recompute every affected net a second
// time.
func (st *refState) commit(ci int, np fpga.XY) {
	op := st.pos[ci]
	ob, nbn := st.binIdx(op.X, op.Y), st.binIdx(np.X, np.Y)
	st.pos[ci] = np
	for _, ni := range st.cellNets[ci] {
		st.boxes[ni] = refComputeBox(st.netCells[ni], st.pos)
	}
	if ob != nbn {
		a := st.area[ci]
		st.binOcc[ob] -= a
		st.binOcc[nbn] += a
	}
}

// anneal mirrors state.anneal with the reference kernels, consuming the
// rng in exactly the same sequence.
func (st *refState) anneal(rng *rand.Rand) {
	n := len(st.nl.Cells)
	moves := st.opts.Moves
	var sum, sum2 float64
	samples := 64
	for i := 0; i < samples; i++ {
		ci := rng.Intn(n)
		np := st.randomTarget(rng, ci, st.dev.Cols)
		d := st.moveDelta(ci, np)
		sum += d
		sum2 += d * d
	}
	mean := sum / float64(samples)
	sigma := math.Sqrt(math.Max(sum2/float64(samples)-mean*mean, 1))
	temp := 2 * sigma
	window := float64(max(st.dev.Cols, st.dev.Rows))
	cool := math.Pow(0.005, 1/float64(max(moves, 1)))
	for i := 0; i < moves; i++ {
		ci := rng.Intn(n)
		w := int(window)
		if w < 2 {
			w = 2
		}
		np := st.randomTarget(rng, ci, w)
		if np == st.pos[ci] {
			continue
		}
		d := st.moveDelta(ci, np)
		if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			st.commit(ci, np)
		}
		temp *= cool
		window = math.Max(2, window*math.Pow(cool, 0.5))
	}
}

// referencePlace is PlaceContext with the reference kernels.
func referencePlace(nl *rtl.Netlist, dev *fpga.Device, seed int64, opts Options) *Placement {
	if opts.BinSize <= 0 {
		opts.BinSize = 4
	}
	if opts.Moves <= 0 {
		opts.Moves = 200 * len(nl.Cells)
		if opts.Moves < 20000 {
			opts.Moves = 20000
		}
	}
	rng := rand.New(rand.NewSource(seed))
	st := refNewState(nl, dev, opts)
	st.initial(rng)
	st.anneal(rng)
	return &Placement{Dev: dev, NL: nl, Pos: st.pos, RegionCenter: st.regionCenter}
}

func comparePlacements(t *testing.T, name string, got, want *Placement) {
	t.Helper()
	if len(got.Pos) != len(want.Pos) {
		t.Fatalf("%s: %d positions, reference has %d", name, len(got.Pos), len(want.Pos))
	}
	for i := range got.Pos {
		if got.Pos[i] != want.Pos[i] {
			t.Fatalf("%s: cell %d placed at %v, reference %v — trajectory diverged",
				name, i, got.Pos[i], want.Pos[i])
		}
	}
	for f, c := range want.RegionCenter {
		if got.RegionCenter[f] != c {
			t.Fatalf("%s: region center of %s at %v, reference %v", name, f.Name, got.RegionCenter[f], c)
		}
	}
}

// TestPlaceEquivalentToReference: the optimized placer must reproduce the
// reference placement bit-for-bit across seeds on the unit-test design.
func TestPlaceEquivalentToReference(t *testing.T) {
	nl := testNetlist(t)
	dev := fpga.XC7Z020()
	opts := DefaultOptions()
	opts.Moves = 6000
	for _, seed := range []int64{1, 7, 42, 104730} {
		got, err := Place(nl, dev, rand.New(rand.NewSource(seed)), opts)
		if err != nil {
			t.Fatal(err)
		}
		comparePlacements(t, "unit design", got, referencePlace(nl, dev, seed, opts))
	}
}

// TestPlaceEquivalentToReferencePaperDesign runs the equivalence on every
// training design at the default move budget and the seeds of the dataset
// build's three label runs (1 + run×7919), so it replays the build's real
// placement traffic (face_detection alone has over 5,000 nets and a
// million moves). It takes about two seconds; the reference recomputes
// each affected net per move, so the test skips under -short and -race.
func TestPlaceEquivalentToReferencePaperDesign(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-design equivalence is slow")
	}
	dev := fpga.XC7Z020()
	opts := DefaultOptions()
	for _, m := range bench.TrainingModules() {
		s, err := hls.ScheduleModule(m, hls.DefaultClock())
		if err != nil {
			t.Fatal(err)
		}
		nl := rtl.Elaborate(hls.BindModule(s))
		for _, seed := range []int64{1, 7920, 15839} {
			got, err := Place(nl, dev, rand.New(rand.NewSource(seed)), opts)
			if err != nil {
				t.Fatal(err)
			}
			comparePlacements(t, m.Name, got, referencePlace(nl, dev, seed, opts))
		}
	}
}

// TestEvalMoveMatchesRecompute property-checks the incremental boundary
// update against a from-scratch recompute over random pin sets and moves.
func TestEvalMoveMatchesRecompute(t *testing.T) {
	f := func(seed int64, nPins uint8, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nPins)%12
		w := 1 + int(span)%16
		xy := make([]pt, n)
		pins := make([]int32, n)
		for i := range xy {
			pins[i] = int32(i)
			xy[i] = pt{int16(rng.Intn(w)), int16(rng.Intn(w))}
		}
		box := computeBox(pins, xy, -1, pt{})
		for trial := 0; trial < 64; trial++ {
			ci := int32(rng.Intn(n))
			np := pt{int16(rng.Intn(w)), int16(rng.Intn(w))}
			got := box
			if !got.move(xy[ci], np) {
				got = computeBox(pins, xy, ci, np)
			}
			want := computeBox(pins, xy, ci, np)
			if got != want {
				t.Logf("move cell %d %v->%v: got %+v want %+v", ci, xy[ci], np, got, want)
				return false
			}
			// Commit the move half the time to exercise box evolution.
			if rng.Intn(2) == 0 {
				xy[ci] = np
				box = got
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestComputeBoxCounts pins the boundary-support bookkeeping on a known
// configuration, including the degenerate all-pins-on-one-tile net.
func TestComputeBoxCounts(t *testing.T) {
	xy := []pt{{1, 2}, {5, 2}, {1, 8}, {3, 4}}
	b := computeBox([]int32{0, 1, 2, 3}, xy, -1, pt{})
	want := bbox{xmin: 1, xmax: 5, ymin: 2, ymax: 8, nxmin: 2, nxmax: 1, nymin: 2, nymax: 1}
	if b != want {
		t.Fatalf("got %+v want %+v", b, want)
	}
	same := []pt{{4, 4}, {4, 4}, {4, 4}}
	b = computeBox([]int32{0, 1, 2}, same, -1, pt{})
	if b.nxmin != 3 || b.nxmax != 3 || b.nymin != 3 || b.nymax != 3 {
		t.Fatalf("degenerate net counts wrong: %+v", b)
	}
}
