// Package place implements a simulated-annealing global placer for the RTL
// netlist on the modeled FPGA fabric. The cost blends weighted half-
// perimeter wirelength, a bin-density penalty that spreads logic the way an
// analytic placer's density constraint would, and a cluster-attraction term
// that keeps each RTL module instance (HLS function) together — the reason
// de-inlining relieves congestion in the paper's case study.
//
// DSP-bearing cells are restricted to DSP columns and memory banks to
// block-RAM columns, reproducing the column-constrained placement the
// paper's Resource feature category reacts to.
package place

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/rtl"
)

// ErrCapacity marks a netlist whose resource demand exceeds the device, so
// no legal placement exists. The flow layer maps it to
// flow.ErrPlacementOverflow.
var ErrCapacity = errors.New("place: design exceeds device capacity")

// Options tunes the annealer.
type Options struct {
	// Moves is the total number of SA moves; 0 selects 200 moves per cell
	// with a floor of 20,000.
	Moves int
	// DensityWeight scales the bin-overflow penalty (logic-unit^2 terms).
	DensityWeight float64
	// ClusterWeight scales the attraction of cells to their module region.
	ClusterWeight float64
	// BinSize is the density-bin edge in tiles.
	BinSize int
}

// DefaultOptions returns the tuning used by the experiments.
func DefaultOptions() Options {
	return Options{
		DensityWeight: 0.25,
		ClusterWeight: 2.0,
		BinSize:       4,
	}
}

// PlaceStats summarizes the annealing run that produced a Placement: how
// many moves were proposed and how many committed. Tracking them costs two
// integer increments per move and never feeds back into the anneal, so
// trajectories are unchanged.
type PlaceStats struct {
	// Moves is the annealing move budget that ran.
	Moves int
	// Accepted counts moves that were committed (improving moves plus
	// Metropolis-accepted uphill moves).
	Accepted int
}

// AcceptRate returns Accepted/Moves (zero when no moves ran).
func (s PlaceStats) AcceptRate() float64 {
	if s.Moves == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Moves)
}

// Placement is the placer result: a tile coordinate per netlist cell.
type Placement struct {
	Dev *fpga.Device
	NL  *rtl.Netlist
	Pos []fpga.XY // indexed by cell ID

	// RegionCenter records the attraction point used for each module
	// instance, useful for diagnostics.
	RegionCenter map[*ir.Function]fpga.XY

	// Stats reports the annealer's move/accept counts for this run.
	Stats PlaceStats
}

// At returns the placed location of a cell.
func (p *Placement) At(c *rtl.Cell) fpga.XY { return p.Pos[c.ID] }

// HPWL returns the total weighted half-perimeter wirelength.
func (p *Placement) HPWL() float64 {
	total := 0.0
	for _, n := range p.NL.Nets {
		total += float64(n.Wires()) * float64(netHPWL(n, p.Pos))
	}
	return total
}

func netHPWL(n *rtl.Net, pos []fpga.XY) int {
	xmin, xmax := pos[n.Driver.ID].X, pos[n.Driver.ID].X
	ymin, ymax := pos[n.Driver.ID].Y, pos[n.Driver.ID].Y
	for _, s := range n.Sinks {
		q := pos[s.Cell.ID]
		if q.X < xmin {
			xmin = q.X
		}
		if q.X > xmax {
			xmax = q.X
		}
		if q.Y < ymin {
			ymin = q.Y
		}
		if q.Y > ymax {
			ymax = q.Y
		}
	}
	return (xmax - xmin) + (ymax - ymin)
}

// cellClass is the legal-location class of a cell.
type cellClass int

const (
	classCLB cellClass = iota
	classDSP
	classBRAM
)

func classify(c *rtl.Cell) cellClass {
	switch {
	case c.Res.BRAM > 0:
		// Only true block-RAM banks are column-constrained; completely
		// partitioned arrays become fabric registers and place anywhere.
		return classBRAM
	case c.Res.DSP > 0:
		return classDSP
	}
	return classCLB
}

// cellArea returns the logic-unit area used by the density model.
func cellArea(c *rtl.Cell) float64 {
	a := float64(c.Res.LUT) + 0.5*float64(c.Res.FF)
	if a < 1 {
		a = 1
	}
	return a
}

// Place runs the annealer. The rng makes the result deterministic for a
// given seed. It is PlaceContext without cancellation.
func Place(nl *rtl.Netlist, dev *fpga.Device, rng *rand.Rand, opts Options) (*Placement, error) {
	return PlaceContext(context.Background(), nl, dev, rng, opts)
}

// PlaceContext runs the annealer under a context: cancellation is checked
// between annealing sweeps, so a deadline or Ctrl-C terminates within a
// fraction of the move budget rather than after it. Netlists whose
// resource demand cannot fit the device fail fast with ErrCapacity before
// any annealing runs.
func PlaceContext(ctx context.Context, nl *rtl.Netlist, dev *fpga.Device, rng *rand.Rand, opts Options) (*Placement, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(nl.Cells) == 0 {
		return nil, fmt.Errorf("place: empty netlist")
	}
	if opts.BinSize <= 0 {
		opts.BinSize = 4
	}
	if opts.Moves <= 0 {
		opts.Moves = 200 * len(nl.Cells)
		if opts.Moves < 20000 {
			opts.Moves = 20000
		}
	}
	if err := checkCapacity(nl, dev); err != nil {
		return nil, err
	}
	st := newState(nl, dev, opts)
	st.initial(rng)
	if err := st.anneal(ctx, rng); err != nil {
		return nil, err
	}
	return &Placement{Dev: dev, NL: nl, Pos: st.positions(), RegionCenter: st.regionCenter,
		Stats: PlaceStats{Moves: opts.Moves, Accepted: st.accepted}}, nil
}

// checkCapacity rejects netlists that cannot legally fit the device: more
// logic area than the CLB fabric holds, or more DSP/BRAM demand than the
// special columns provide.
func checkCapacity(nl *rtl.Netlist, dev *fpga.Device) error {
	var area, dsp, bram float64
	for _, c := range nl.Cells {
		area += cellArea(c)
		dsp += float64(c.Res.DSP)
		bram += float64(c.Res.BRAM)
	}
	clbTiles := 0
	for x := 0; x < dev.Cols; x++ {
		for y := 0; y < dev.Rows; y++ {
			if dev.KindAt(x, y) == fpga.TileCLB {
				clbTiles++
			}
		}
	}
	capArea := float64(clbTiles) * (float64(dev.TileLUT) + 0.5*float64(dev.TileFF))
	capDSP := float64(len(dev.DSPCols) * dev.Rows * dev.TileDSP)
	capBRAM := float64(len(dev.BRAMCols) * dev.Rows * dev.TileBRAM)
	switch {
	case area > capArea:
		return fmt.Errorf("%w: logic area %.0f > fabric capacity %.0f", ErrCapacity, area, capArea)
	case dsp > capDSP:
		return fmt.Errorf("%w: %d DSP slices > device %d", ErrCapacity, int(dsp), int(capDSP))
	case bram > capBRAM:
		return fmt.Errorf("%w: %d BRAM banks > device %d", ErrCapacity, int(bram), int(capBRAM))
	}
	return nil
}

// state carries the annealer's incremental bookkeeping in compact flat
// arrays, so a move touches a few cache lines: the moved cell's record and
// incidence row, each partner's position, at most two density bins and,
// for nets of three or more pins, one box.
type state struct {
	nl   *rtl.Netlist
	dev  *fpga.Device
	opts Options

	xy    []pt      // cell positions, indexed by cell ID
	cells []cellRec // per-cell region, class, area and cluster weight

	// Cell→net incidence in CSR form: the nets of cell c are
	// inc[incOff[c]:incOff[c+1]], in net order.
	incOff []int32
	inc    []incidence

	// Per-net state, indexed by incidence.net: distinct pins in CSR form
	// (pins[pinOff[n]:pinOff[n+1]]), committed boxes and the boxes pending
	// from the last moveDelta. Boxes are kept for nets of three or more
	// pins only; a two-pin net is priced from its partner's position.
	pinOff []int32
	pins   []int32
	boxes  []bbox
	pends  []bbox

	// legal[cls*cols+x] is the legal column for a cell of class cls
	// proposed at column x.
	legal []int16
	// Density bins: binIdx(p) = binCol[p.x] + binRow[p.y].
	binCol []int32
	binRow []int32
	bins   []bin

	// funcArea is each module instance's cell area plus pin-wiring demand,
	// the weight partitionRegions sizes its region by.
	funcArea     map[*ir.Function]float64
	regionCenter map[*ir.Function]fpga.XY

	// accepted counts committed annealing moves (see PlaceStats).
	accepted int
}

// pt is a tile coordinate in the annealer's compact form (the die is 60x110
// tiles; int16 bounds it at 32,767 per axis).
type pt struct {
	x, y int16
}

// cellRec packs what moveDelta and randomTarget read of one cell: its
// module region (x0..x1, y0..y1 inclusive; attraction is zero inside), its
// legal-location class, its density area and its cluster weight.
type cellRec struct {
	x0, y0, x1, y1 int16
	cls            cellClass
	area           float64
	clusterWt      float64
}

// dist returns the Manhattan distance from p to the cell's region, zero
// when p lies inside it.
func (r *cellRec) dist(p pt) int {
	d := 0
	if p.x < r.x0 {
		d += int(r.x0 - p.x)
	} else if p.x > r.x1 {
		d += int(p.x - r.x1)
	}
	if p.y < r.y0 {
		d += int(r.y0 - p.y)
	} else if p.y > r.y1 {
		d += int(p.y - r.y1)
	}
	return d
}

// incidence is one net of a cell: net indexes the per-net arrays, other is
// the partner cell of a two-pin net and -1 otherwise, and weight is the
// net's HPWL weight (its wire count).
type incidence struct {
	net, other int32
	weight     float64
}

// bin is one density bin: occupied and available logic area.
type bin struct {
	occ, cap float64
}

// bbox is a net bounding box annotated with the number of pins sitting on
// each of its four boundaries. The support counts are what make the classic
// incremental placer update O(1): a move only forces a rescan when it takes
// a boundary's sole supporting pin strictly inward. All arithmetic is on
// tile integers, so an incrementally maintained box is bit-identical to a
// from-scratch recompute and annealing trajectories are unchanged.
type bbox struct {
	xmin, xmax, ymin, ymax int16
	// Pins currently sitting on each boundary (support counts).
	nxmin, nxmax, nymin, nymax int16
}

func (b *bbox) hpwl() float64 {
	return float64((b.xmax - b.xmin) + (b.ymax - b.ymin))
}

// computeBox scans the net's pins — with cell `moved` (when >= 0) taken at
// `np` instead of its committed location — producing the bounding box and
// its boundary support counts.
func computeBox(pins []int32, xy []pt, moved int32, np pt) bbox {
	p := xy[pins[0]]
	if pins[0] == moved {
		p = np
	}
	b := bbox{xmin: p.x, xmax: p.x, ymin: p.y, ymax: p.y, nxmin: 1, nxmax: 1, nymin: 1, nymax: 1}
	for _, ci := range pins[1:] {
		p := xy[ci]
		if ci == moved {
			p = np
		}
		if p.x < b.xmin {
			b.xmin = p.x
			b.nxmin = 1
		} else if p.x == b.xmin {
			b.nxmin++
		}
		if p.x > b.xmax {
			b.xmax = p.x
			b.nxmax = 1
		} else if p.x == b.xmax {
			b.nxmax++
		}
		if p.y < b.ymin {
			b.ymin = p.y
			b.nymin = 1
		} else if p.y == b.ymin {
			b.nymin++
		}
		if p.y > b.ymax {
			b.ymax = p.y
			b.nymax = 1
		} else if p.y == b.ymax {
			b.nymax++
		}
	}
	return b
}

// axisMove updates one axis of a box for a pin moving o -> n, maintaining
// the boundary support counts. It reports false when the box cannot be
// updated in O(1) — the moved pin was a boundary's only support and moved
// strictly inward, so the next-innermost pin is unknown without a rescan.
func axisMove(min, max *int16, nmin, nmax *int16, o, n int16) bool {
	if o == n {
		return true
	}
	// Remove o from the boundaries it supports. When min == max every pin
	// shares the coordinate, so both counts are >= 2 and neither empties;
	// otherwise o can sit on at most one boundary with support 1.
	if o == *min {
		if *nmin == 1 {
			if n > *min {
				return false
			}
			// The moved pin re-establishes the min boundary further out
			// (n < min <= max, so the max side is untouched).
			*min = n
			return true
		}
		*nmin--
	}
	if o == *max {
		if *nmax == 1 {
			if n < *max {
				return false
			}
			*max = n
			return true
		}
		*nmax--
	}
	// Insert n.
	if n < *min {
		*min = n
		*nmin = 1
	} else if n == *min {
		*nmin++
	}
	if n > *max {
		*max = n
		*nmax = 1
	} else if n == *max {
		*nmax++
	}
	return true
}

// move updates the box in place for one pin moving op -> np. It reports
// false when the box needs an O(pins) rescan instead: a sole boundary pin
// moved inward.
func (b *bbox) move(op, np pt) bool {
	return axisMove(&b.xmin, &b.xmax, &b.nxmin, &b.nxmax, op.x, np.x) &&
		axisMove(&b.ymin, &b.ymax, &b.nymin, &b.nymax, op.y, np.y)
}

// span is the half-perimeter of the two-pin net between a and b.
func span(a, b pt) int {
	dx, dy := int(a.x)-int(b.x), int(a.y)-int(b.y)
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

func newState(nl *rtl.Netlist, dev *fpga.Device, opts Options) *state {
	n := len(nl.Cells)
	st := &state{
		nl:           nl,
		dev:          dev,
		opts:         opts,
		xy:           make([]pt, n),
		cells:        make([]cellRec, n),
		incOff:       make([]int32, n+1),
		funcArea:     make(map[*ir.Function]float64),
		regionCenter: make(map[*ir.Function]fpga.XY),
	}
	for _, c := range nl.Cells {
		a := cellArea(c)
		st.cells[c.ID] = cellRec{cls: classify(c), area: a, clusterWt: math.Sqrt(a)}
		st.funcArea[c.Func] += a
	}
	// Distinct pins of every net, in driver-then-sink order; a net of one
	// distinct cell never changes cost and is dropped. mark[c] == i+1 once
	// cell c is a pin of nl.Nets[i].
	mark := make([]int32, n)
	st.pinOff = []int32{0}
	var weights []float64
	for i, net := range nl.Nets {
		start := len(st.pins)
		st.pins = append(st.pins, int32(net.Driver.ID))
		mark[net.Driver.ID] = int32(i + 1)
		for _, s := range net.Sinks {
			if mark[s.Cell.ID] != int32(i+1) {
				mark[s.Cell.ID] = int32(i + 1)
				st.pins = append(st.pins, int32(s.Cell.ID))
			}
		}
		if len(st.pins)-start < 2 {
			st.pins = st.pins[:start]
			continue
		}
		st.pinOff = append(st.pinOff, int32(len(st.pins)))
		w := float64(net.Wires())
		weights = append(weights, w)
		for _, ci := range st.pins[start:] {
			st.incOff[ci+1]++
			st.funcArea[nl.Cells[ci].Func] += w
		}
	}
	for c := 0; c < n; c++ {
		st.incOff[c+1] += st.incOff[c]
	}
	st.inc = make([]incidence, st.incOff[n])
	fill := append([]int32(nil), st.incOff[:n]...)
	for k, w := range weights {
		pins := st.pins[st.pinOff[k]:st.pinOff[k+1]]
		for j, ci := range pins {
			e := incidence{net: int32(k), other: -1, weight: w}
			if len(pins) == 2 {
				e.other = pins[1-j]
			}
			st.inc[fill[ci]] = e
			fill[ci]++
		}
	}
	st.boxes = make([]bbox, len(weights))
	st.pends = make([]bbox, len(weights))

	// Legal columns per class: DSP and BRAM cells snap to the nearest
	// column of their kind, CLB cells step right (wrapping) off special
	// columns. A class whose columns the device lacks keeps x, since
	// checkCapacity admits no cell of that class.
	cols := dev.Cols
	st.legal = make([]int16, 3*cols)
	for x := 0; x < cols; x++ {
		clb, dsp, bram := x, x, x
		for step := 0; step < cols && dev.KindAt(clb, 0) != fpga.TileCLB; step++ {
			clb = (clb + 1) % cols
		}
		if len(dev.DSPCols) > 0 {
			dsp = dev.DSPColNearest(x)
		}
		if len(dev.BRAMCols) > 0 {
			bram = dev.BRAMColNearest(x)
		}
		st.legal[int(classCLB)*cols+x] = int16(clb)
		st.legal[int(classDSP)*cols+x] = int16(dsp)
		st.legal[int(classBRAM)*cols+x] = int16(bram)
	}

	binsX := (dev.Cols + opts.BinSize - 1) / opts.BinSize
	binsY := (dev.Rows + opts.BinSize - 1) / opts.BinSize
	st.binCol = make([]int32, dev.Cols)
	for x := range st.binCol {
		st.binCol[x] = int32(x / opts.BinSize)
	}
	st.binRow = make([]int32, dev.Rows)
	for y := range st.binRow {
		st.binRow[y] = int32((y / opts.BinSize) * binsX)
	}
	st.bins = make([]bin, binsX*binsY)
	perCLB := float64(dev.TileLUT) + 0.5*float64(dev.TileFF)
	for x := 0; x < dev.Cols; x++ {
		for y := 0; y < dev.Rows; y++ {
			if dev.KindAt(x, y) == fpga.TileCLB {
				st.bins[st.binIdx(pt{int16(x), int16(y)})].cap += perCLB
			}
		}
	}
	return st
}

func (st *state) binIdx(p pt) int {
	return int(st.binCol[p.x]) + int(st.binRow[p.y])
}

// legalX snaps an on-die column to a legal one for the cell's class.
func (st *state) legalX(ci, x int) int16 {
	return st.legal[int(st.cells[ci].cls)*st.dev.Cols+x]
}

// positions returns the placement in fpga.XY form.
func (st *state) positions() []fpga.XY {
	pos := make([]fpga.XY, len(st.xy))
	for i, p := range st.xy {
		pos[i] = fpga.XY{X: int(p.x), Y: int(p.y)}
	}
	return pos
}

// rect is an inclusive tile rectangle.
type rect struct {
	x0, y0, x1, y1 int
}

func (r rect) width() int  { return r.x1 - r.x0 + 1 }
func (r rect) height() int { return r.y1 - r.y0 + 1 }

func (r rect) center() fpga.XY {
	return fpga.XY{X: (r.x0 + r.x1) / 2, Y: (r.y0 + r.y1) / 2}
}

// partitionRegions recursively bisects the die so every module instance
// gets a rectangle proportional to its cell area, keeping aspect ratios
// sane (the floorplanning a hierarchy-aware placer performs implicitly).
func partitionRegions(funcs []*ir.Function, areaOf map[*ir.Function]float64, r rect, out map[*ir.Function]rect) {
	if len(funcs) == 0 {
		return
	}
	if len(funcs) == 1 {
		out[funcs[0]] = r
		return
	}
	total := 0.0
	for _, f := range funcs {
		total += areaOf[f]
	}
	// Greedy half-split by area over the sorted list.
	accum, cut := 0.0, 0
	for i, f := range funcs {
		if accum >= total/2 && i > 0 {
			cut = i
			break
		}
		accum += areaOf[f]
		cut = i + 1
	}
	if cut <= 0 || cut >= len(funcs) {
		cut = len(funcs) / 2
		accum = 0
		for _, f := range funcs[:cut] {
			accum += areaOf[f]
		}
	}
	frac := accum / total
	if frac < 0.1 {
		frac = 0.1
	}
	if frac > 0.9 {
		frac = 0.9
	}
	a, b := r, r
	if r.width() >= r.height() {
		mid := r.x0 + int(frac*float64(r.width()))
		if mid <= r.x0 {
			mid = r.x0 + 1
		}
		if mid > r.x1 {
			mid = r.x1
		}
		a.x1 = mid - 1
		b.x0 = mid
	} else {
		mid := r.y0 + int(frac*float64(r.height()))
		if mid <= r.y0 {
			mid = r.y0 + 1
		}
		if mid > r.y1 {
			mid = r.y1
		}
		a.y1 = mid - 1
		b.y0 = mid
	}
	partitionRegions(funcs[:cut], areaOf, a, out)
	partitionRegions(funcs[cut:], areaOf, b, out)
}

// initial assigns module regions by recursive bisection and scatters cells
// inside them. Regions are sized by cell area plus pin-wiring demand, the
// way congestion-driven floorplanning gives interconnect-heavy blocks more
// room than their logic alone would claim.
func (st *state) initial(rng *rand.Rand) {
	funcs := st.nl.Mod.LiveFuncs()
	sorted := append([]*ir.Function(nil), funcs...)
	sort.Slice(sorted, func(i, j int) bool {
		if st.funcArea[sorted[i]] != st.funcArea[sorted[j]] {
			return st.funcArea[sorted[i]] > st.funcArea[sorted[j]]
		}
		return sorted[i].Name < sorted[j].Name
	})
	regions := make(map[*ir.Function]rect, len(sorted))
	die := rect{0, 0, st.dev.Cols - 1, st.dev.Rows - 1}
	partitionRegions(sorted, st.funcArea, die, regions)

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
			r := &st.cells[c.ID]
			r.x0, r.y0, r.x1, r.y1 = int16(rg.x0), int16(rg.y0), int16(rg.x1), int16(rg.y1)
			y := rg.y0 + rng.Intn(rg.height())
			x := st.legalX(c.ID, rg.x0+rng.Intn(rg.width()))
			st.xy[c.ID] = pt{x, int16(y)}
		}
	}
	for n := range st.boxes {
		if pins := st.pins[st.pinOff[n]:st.pinOff[n+1]]; len(pins) > 2 {
			st.boxes[n] = computeBox(pins, st.xy, -1, pt{})
		}
	}
	for _, c := range st.nl.Cells {
		st.bins[st.binIdx(st.xy[c.ID])].occ += st.cells[c.ID].area
	}
}

func overflow2(occ, cap float64) float64 {
	d := occ - cap
	if d <= 0 {
		return 0
	}
	return d * d
}

// moveDelta evaluates the cost change of moving cell ci to np, without
// committing. A two-pin net's half-perimeter is the span to its partner,
// priced from the partner's position with no box at all. A larger net's
// box is updated incrementally (O(1) unless a sole boundary pin moves
// inward) and cached in pends, so a commit of the same move adopts it
// instead of recomputing the net. Every half-perimeter is an exact
// integer and the float terms are summed in net order, so deltas — and
// with them the annealing trajectory — are bit-identical to recomputing
// every box per move.
func (st *state) moveDelta(ci int, np pt) float64 {
	op := st.xy[ci]
	dWL := 0.0
	for _, e := range st.inc[st.incOff[ci]:st.incOff[ci+1]] {
		if e.other >= 0 {
			q := st.xy[e.other]
			dWL += e.weight * float64(span(q, np)-span(q, op))
			continue
		}
		b := st.boxes[e.net]
		old := b.hpwl()
		if !b.move(op, np) {
			b = computeBox(st.pins[st.pinOff[e.net]:st.pinOff[e.net+1]], st.xy, int32(ci), np)
		}
		st.pends[e.net] = b
		dWL += e.weight * (b.hpwl() - old)
	}
	r := &st.cells[ci]
	ob, nb := st.binIdx(op), st.binIdx(np)
	dDen := 0.0
	if ob != nb {
		a := r.area
		o, n := &st.bins[ob], &st.bins[nb]
		dDen = overflow2(o.occ-a, o.cap) - overflow2(o.occ, o.cap) +
			overflow2(n.occ+a, n.cap) - overflow2(n.occ, n.cap)
	}
	dClu := r.clusterWt * float64(r.dist(np)-r.dist(op))
	return dWL + st.opts.DensityWeight*dDen + st.opts.ClusterWeight*dClu
}

// commit applies the move evaluated by the immediately preceding
// moveDelta(ci, np) call: every affected net of three or more pins adopts
// its pending box, so no net is recomputed a second time.
func (st *state) commit(ci int, np pt) {
	op := st.xy[ci]
	st.xy[ci] = np
	for _, e := range st.inc[st.incOff[ci]:st.incOff[ci+1]] {
		if e.other < 0 {
			st.boxes[e.net] = st.pends[e.net]
		}
	}
	if ob, nb := st.binIdx(op), st.binIdx(np); ob != nb {
		a := st.cells[ci].area
		st.bins[ob].occ -= a
		st.bins[nb].occ += a
	}
}

// metropolis reports u < e^-y, the Metropolis acceptance of an uphill move
// with y = Δ/T > 0 and u uniform in [0, 1), exactly as u < math.Exp(-y)
// decides it. For y > 0, e^y ≥ 1 + y + y²/2 (every Taylor term is
// positive), so e^-y ≤ 1/(1 + y + y²/2). When u(1 + y + y²/2) exceeds
// 1 + 1e-9, u exceeds e^-y by a relative margin of about 1e-9, far above
// the few-ulp rounding of the product and math.Exp's error of under one
// ulp, so math.Exp(-y) ≤ u and the move is rejected without calling Exp.
// Otherwise math.Exp decides; a NaN product (NaN y, or u == 0 times an
// infinite factor) compares false and lands there too.
func metropolis(u, y float64) bool {
	if u*(1+y+0.5*y*y) > 1+1e-9 {
		return false
	}
	return u < math.Exp(-y)
}

// cancelCheckEvery is how many annealing moves run between context
// checks: frequent enough that cancellation lands within milliseconds,
// rare enough that the check never shows up in a profile.
const cancelCheckEvery = 2048

func (st *state) anneal(ctx context.Context, rng *rand.Rand) error {
	n := len(st.nl.Cells)
	moves := st.opts.Moves
	// Seed temperature from the spread of random-move deltas.
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
	window := float64(maxInt(st.dev.Cols, st.dev.Rows))
	cool := math.Pow(0.005, 1/float64(maxInt(moves, 1))) // end at 0.5% of T0
	shrink := math.Pow(cool, 0.5)                        // the window shrinks as √cool per move

	for i := 0; i < moves; i++ {
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ci := rng.Intn(n)
		w := int(window)
		if w < 2 {
			w = 2
		}
		np := st.randomTarget(rng, ci, w)
		if np == st.xy[ci] {
			continue
		}
		d := st.moveDelta(ci, np)
		if d <= 0 || metropolis(rng.Float64(), d/temp) {
			st.commit(ci, np)
			st.accepted++
		}
		temp *= cool
		window = math.Max(2, window*shrink)
	}
	return nil
}

// randomTarget proposes a legal location within a window around the cell.
// Out-of-bounds proposals reflect off the die edge rather than clamping,
// which would otherwise pile cells into the boundary rows and columns.
func (st *state) randomTarget(rng *rand.Rand, ci, window int) pt {
	cur := st.xy[ci]
	x := reflect(int(cur.x)+rng.Intn(2*window+1)-window, st.dev.Cols)
	y := reflect(int(cur.y)+rng.Intn(2*window+1)-window, st.dev.Rows)
	return pt{st.legalX(ci, x), int16(y)}
}

// reflect folds v into [0, n) by mirroring at the boundaries.
func reflect(v, n int) int {
	if v >= 0 && v < n {
		return v
	}
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
