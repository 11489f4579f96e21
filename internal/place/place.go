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
	// Moves is the total number of SA moves; 0 selects 60 moves per cell
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
	return &Placement{Dev: dev, NL: nl, Pos: st.pos, RegionCenter: st.regionCenter,
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

// state carries the annealer's incremental bookkeeping.
type state struct {
	nl   *rtl.Netlist
	dev  *fpga.Device
	opts Options

	pos     []fpga.XY
	class   []cellClass
	area    []float64
	attract []rect // module region per cell; attraction is zero inside

	// Per-net state in flat parallel arrays (index = net): pin lists,
	// HPWL weights, committed boxes and the boxes pending from the last
	// moveDelta. Contiguous values keep the annealer's inner loop on a
	// few cache lines instead of chasing per-net heap objects.
	netCells  [][]int
	weights   []float64
	boxes     []bbox
	pends     []bbox
	cellNets  [][]int // net indices per cell
	binsX     int
	binsY     int
	binOcc    []float64
	binCap    []float64
	wirelen   float64
	density   float64
	cluster   float64
	clusterWt []float64

	regionCenter map[*ir.Function]fpga.XY

	// accepted counts committed annealing moves (see PlaceStats).
	accepted int
}

// bbox is a net bounding box annotated with the number of pins sitting on
// each of its four boundaries. The support counts are what make the classic
// incremental placer update O(1): a move only forces a rescan when it takes
// a boundary's sole supporting pin strictly inward. All arithmetic is on
// tile integers, so an incrementally maintained box is bit-identical to a
// from-scratch recompute and annealing trajectories are unchanged. int16
// coordinates (the die is 60x110 tiles) keep the whole box in 16 bytes so
// the pending-box writes on the hot path stay cheap.
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
func computeBox(cells []int, pos []fpga.XY, moved int, np fpga.XY) bbox {
	p := pos[cells[0]]
	if cells[0] == moved {
		p = np
	}
	b := bbox{xmin: int16(p.X), xmax: int16(p.X), ymin: int16(p.Y), ymax: int16(p.Y),
		nxmin: 1, nxmax: 1, nymin: 1, nymax: 1}
	for _, ci := range cells[1:] {
		p := pos[ci]
		if ci == moved {
			p = np
		}
		x, y := int16(p.X), int16(p.Y)
		if x < b.xmin {
			b.xmin = x
			b.nxmin = 1
		} else if x == b.xmin {
			b.nxmin++
		}
		if x > b.xmax {
			b.xmax = x
			b.nxmax = 1
		} else if x == b.xmax {
			b.nxmax++
		}
		if y < b.ymin {
			b.ymin = y
			b.nymin = 1
		} else if y == b.ymin {
			b.nymin++
		}
		if y > b.ymax {
			b.ymax = y
			b.nymax = 1
		} else if y == b.ymax {
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

// twoPinBox builds the box of a two-pin net from its pin coordinates,
// matching computeBox's output (boundary counts included) exactly.
func twoPinBox(ax, ay, bx, by int16) bbox {
	b := bbox{xmin: ax, xmax: ax, ymin: ay, ymax: ay, nxmin: 1, nxmax: 1, nymin: 1, nymax: 1}
	if bx < b.xmin {
		b.xmin = bx
	} else if bx > b.xmax {
		b.xmax = bx
	} else {
		b.nxmin = 2
		b.nxmax = 2
	}
	if by < b.ymin {
		b.ymin = by
	} else if by > b.ymax {
		b.ymax = by
	} else {
		b.nymin = 2
		b.nymax = 2
	}
	return b
}

// evalBox returns the net's box after moving cell ci from op to np: O(1)
// via the incremental boundary update in the common case, an O(pins) rescan
// only when a sole boundary pin moves inward.
func evalBox(box bbox, cells []int, pos []fpga.XY, ci int, op, np fpga.XY) bbox {
	if axisMove(&box.xmin, &box.xmax, &box.nxmin, &box.nxmax, int16(op.X), int16(np.X)) &&
		axisMove(&box.ymin, &box.ymax, &box.nymin, &box.nymax, int16(op.Y), int16(np.Y)) {
		return box
	}
	return computeBox(cells, pos, ci, np)
}

func newState(nl *rtl.Netlist, dev *fpga.Device, opts Options) *state {
	st := &state{
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
	st.boxes = make([]bbox, len(st.netCells))
	st.pends = make([]bbox, len(st.netCells))
	st.binsX = (dev.Cols + opts.BinSize - 1) / opts.BinSize
	st.binsY = (dev.Rows + opts.BinSize - 1) / opts.BinSize
	st.binOcc = make([]float64, st.binsX*st.binsY)
	st.binCap = make([]float64, st.binsX*st.binsY)
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

func (st *state) binIdx(x, y int) int {
	return (y/st.opts.BinSize)*st.binsX + x/st.opts.BinSize
}

// rect is an inclusive tile rectangle.
type rect struct {
	x0, y0, x1, y1 int
}

func (r rect) width() int  { return r.x1 - r.x0 + 1 }
func (r rect) height() int { return r.y1 - r.y0 + 1 }

// dist returns the Manhattan distance from p to the rectangle, zero when p
// lies inside it.
func (r rect) dist(p fpga.XY) int {
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
	// Full cost from scratch.
	st.wirelen = 0
	for ni := range st.boxes {
		st.boxes[ni] = computeBox(st.netCells[ni], st.pos, -1, fpga.XY{})
		st.wirelen += st.weights[ni] * st.boxes[ni].hpwl()
	}
	for i := range st.binOcc {
		st.binOcc[i] = 0
	}
	st.cluster = 0
	for _, c := range st.nl.Cells {
		st.binOcc[st.binIdx(st.pos[c.ID].X, st.pos[c.ID].Y)] += st.area[c.ID]
		st.cluster += st.clusterWt[c.ID] * float64(st.attract[c.ID].dist(st.pos[c.ID]))
	}
	st.density = 0
	for i := range st.binOcc {
		st.density += overflow2(st.binOcc[i], st.binCap[i])
	}
}

func overflow2(occ, cap float64) float64 {
	d := occ - cap
	if d <= 0 {
		return 0
	}
	return d * d
}

// legalX snaps a column to a legal one for the cell's class.
func (st *state) legalX(cell int, x int) int {
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
	// CLB cells avoid special columns: step off them.
	for st.dev.KindAt(x, 0) != fpga.TileCLB {
		x++
		if x >= st.dev.Cols {
			x = 0
		}
	}
	return x
}

// moveDelta evaluates the cost change of moving cell ci to np, without
// committing. Each affected net's box is updated incrementally (O(1) unless
// a sole boundary pin moves inward) and cached in netBox.pend, so a commit
// of the same move applies the boxes instead of recomputing the nets. The
// per-net float expression is unchanged and the boxes are exact integers,
// so deltas — and with them the annealing trajectory — are bit-identical
// to the recompute-per-move reference.
func (st *state) moveDelta(ci int, np fpga.XY) float64 {
	op := st.pos[ci]
	ox, nx := int16(op.X), int16(np.X)
	oy, ny := int16(op.Y), int16(np.Y)
	dWL := 0.0
	for _, ni := range st.cellNets[ci] {
		b := st.boxes[ni]
		old := b.hpwl()
		if cells := st.netCells[ni]; len(cells) == 2 {
			// Two-pin net: the box is just the span to the other pin —
			// identical to computeBox's scan, without the boundary dance.
			oi := cells[0]
			if oi == ci {
				oi = cells[1]
			}
			q := st.pos[oi]
			b = twoPinBox(int16(q.X), int16(q.Y), nx, ny)
		} else if !(axisMove(&b.xmin, &b.xmax, &b.nxmin, &b.nxmax, ox, nx) &&
			axisMove(&b.ymin, &b.ymax, &b.nymin, &b.nymax, oy, ny)) {
			b = computeBox(cells, st.pos, ci, np)
		}
		st.pends[ni] = b
		dWL += st.weights[ni] * (b.hpwl() - old)
	}
	ob, nbn := st.binIdx(op.X, op.Y), st.binIdx(np.X, np.Y)
	dDen := 0.0
	if ob != nbn {
		a := st.area[ci]
		dDen = overflow2(st.binOcc[ob]-a, st.binCap[ob]) - overflow2(st.binOcc[ob], st.binCap[ob]) +
			overflow2(st.binOcc[nbn]+a, st.binCap[nbn]) - overflow2(st.binOcc[nbn], st.binCap[nbn])
	}
	dClu := st.clusterWt[ci] * float64(st.attract[ci].dist(np)-st.attract[ci].dist(op))
	return dWL + st.opts.DensityWeight*dDen + st.opts.ClusterWeight*dClu
}

// commit applies the move evaluated by the immediately preceding
// moveDelta(ci, np) call: every affected net adopts its pending box, so no
// net is recomputed a second time. st.wirelen is diagnostic bookkeeping
// (never read by the annealer), updated from the same cached boxes.
func (st *state) commit(ci int, np fpga.XY, delta float64) {
	op := st.pos[ci]
	ob, nbn := st.binIdx(op.X, op.Y), st.binIdx(np.X, np.Y)
	st.pos[ci] = np
	for _, ni := range st.cellNets[ci] {
		st.wirelen += st.weights[ni] * (st.pends[ni].hpwl() - st.boxes[ni].hpwl())
		st.boxes[ni] = st.pends[ni]
	}
	if ob != nbn {
		a := st.area[ci]
		st.density += overflow2(st.binOcc[ob]-a, st.binCap[ob]) - overflow2(st.binOcc[ob], st.binCap[ob]) +
			overflow2(st.binOcc[nbn]+a, st.binCap[nbn]) - overflow2(st.binOcc[nbn], st.binCap[nbn])
		st.binOcc[ob] -= a
		st.binOcc[nbn] += a
	}
	st.cluster += st.clusterWt[ci] * float64(st.attract[ci].dist(np)-st.attract[ci].dist(op))
	_ = delta
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
		if np == st.pos[ci] {
			continue
		}
		d := st.moveDelta(ci, np)
		if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			st.commit(ci, np, d)
			st.accepted++
		}
		temp *= cool
		window = math.Max(2, window*math.Pow(cool, 0.5))
	}
	return nil
}

// randomTarget proposes a legal location within a window around the cell.
// Out-of-bounds proposals reflect off the die edge rather than clamping,
// which would otherwise pile cells into the boundary rows and columns.
func (st *state) randomTarget(rng *rand.Rand, ci, window int) fpga.XY {
	cur := st.pos[ci]
	x := reflect(cur.X+rng.Intn(2*window+1)-window, st.dev.Cols)
	y := reflect(cur.Y+rng.Intn(2*window+1)-window, st.dev.Rows)
	return fpga.XY{X: st.legalX(ci, x), Y: y}
}

// reflect folds v into [0, n) by mirroring at the boundaries.
func reflect(v, n int) int {
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
