package store

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/congestion"
	"repro/internal/flow"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rtl"
	"repro/internal/timing"
)

// Flow-result payload codec.
//
// A flow.Result is a deep pointer graph — the schedule keys slots by
// *ir.Op, the netlist maps ops to cells, pins reference nets — so a naive
// field serialization could never restore it. Instead the codec exploits
// the same property the flow cache's keys rely on: the front half of the
// flow (schedule, bind, elaborate) is a deterministic pure function of the
// module text and the clock. The payload therefore stores only the module's
// canonical text plus the stochastic back half (placement positions,
// congestion grids, per-pin routing stats, the timing report), and decoding
// re-derives the front half by replaying schedule/bind/elaborate on the
// parsed module. Cell and net IDs reproduce exactly, so the stored
// positions and pin references resolve against the re-derived netlist.
//
// Verification is semantic, not just checksummed: VerifyResultKey
// recomputes flow.CacheKey over the decoded module and config and compares
// it to the requested key. Since the key hashes the module text and every
// config field that influences outputs, a payload that decodes but
// describes anything other than the requested artifact is rejected — the
// disk tier can degrade to recompute but never serve a wrong result.

const (
	payloadResult  = 'R'
	payloadDataset = 'D'
	resultVersion  = 1
)

// EncodeResult serializes a completed flow result. Results with missing
// artifacts (failed or synthetic runs) are rejected.
func EncodeResult(res *flow.Result) ([]byte, error) {
	if err := encodableResult(res); err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := ir.WriteText(&text, res.Mod); err != nil {
		return nil, fmt.Errorf("store: encode module text: %w", err)
	}
	b := make([]byte, 0, EncodedResultSize(res))
	b = appendU8(b, payloadResult)
	b = appendU8(b, resultVersion)
	b = appendString(b, text.String())
	b = appendConfig(b, res.Config)
	b = appendPlacement(b, res.Placement)
	b = appendRouting(b, res.Routing)
	rep := res.Timing
	b = appendF64(b, rep.CriticalNS)
	b = appendF64(b, rep.WNS)
	b = appendF64(b, rep.FmaxMHz)
	b = appendI64(b, rep.LatencyCycles)
	b = appendBool(b, res.Convergence.Converged)
	b = appendI64(b, int64(res.Convergence.OverusedEdges))
	b = appendI64(b, int64(res.Convergence.Iterations))
	tm := res.Timings
	b = appendI64(b, int64(tm.Schedule))
	b = appendI64(b, int64(tm.Bind))
	b = appendI64(b, int64(tm.Elaborate))
	b = appendI64(b, int64(tm.Place))
	b = appendI64(b, int64(tm.Route))
	b = appendI64(b, int64(tm.Timing))
	b = appendI64(b, int64(tm.Total))
	return b, nil
}

// encodableResult validates that every artifact the codec persists is
// present.
func encodableResult(res *flow.Result) error {
	switch {
	case res == nil:
		return fmt.Errorf("store: encode nil result")
	case res.Mod == nil, res.Config.Dev == nil, res.Placement == nil,
		res.Routing == nil, res.Routing.Map == nil, res.Timing == nil:
		return fmt.Errorf("store: result for %q is missing artifacts, not encodable", resultName(res))
	}
	return nil
}

func resultName(res *flow.Result) string {
	if res.Mod != nil {
		return res.Mod.Name
	}
	return "<nil>"
}

// EncodedResultSize returns the exact payload size EncodeResult will
// produce, without building it — the memory tier prices entries with this.
// Returns 0 for results EncodeResult would reject.
func EncodedResultSize(res *flow.Result) int {
	if encodableResult(res) != nil {
		return 0
	}
	var cw countWriter
	ir.WriteText(&cw, res.Mod)
	dev := res.Config.Dev
	n := 2 // payload kind + version
	n += 4 + cw.n
	// Config: device (name + 6 ints + 2 slices + 2 floats + 4 totals),
	// clock, seed, place, route, timing model, strict flag.
	n += stringSize(dev.Name) + 6*8 + (4 + 8*len(dev.DSPCols)) + (4 + 8*len(dev.BRAMCols)) + 2*8 + 4*8
	n += 2*8 + 8 + (8 + 8 + 8 + 8) + (8 + 8 + 8 + 8 + 8) + 6*8 + 1
	// Placement: positions, stats, region centers.
	pl := res.Placement
	n += 4 + 16*len(pl.Pos) + 2*8
	n += 4
	for f := range pl.RegionCenter {
		n += stringSize(f.Name) + 16
	}
	// Routing: grid dims + two flat grids + pins + overflow/iterations.
	rr := res.Routing
	n += 8 + 16*res.Config.Dev.Cols*res.Config.Dev.Rows
	n += 4 + 32*len(rr.Pins) + 2*8
	// Timing report, convergence, timings.
	n += 3*8 + 8
	n += 1 + 2*8
	n += 7 * 8
	return n
}

func appendConfig(b []byte, cfg flow.Config) []byte {
	dev := cfg.Dev
	b = appendString(b, dev.Name)
	b = appendI64(b, int64(dev.Cols))
	b = appendI64(b, int64(dev.Rows))
	b = appendInts(b, dev.DSPCols)
	b = appendInts(b, dev.BRAMCols)
	b = appendI64(b, int64(dev.TileLUT))
	b = appendI64(b, int64(dev.TileFF))
	b = appendI64(b, int64(dev.TileDSP))
	b = appendI64(b, int64(dev.TileBRAM))
	b = appendF64(b, dev.VCap)
	b = appendF64(b, dev.HCap)
	b = appendI64(b, int64(dev.Totals.LUT))
	b = appendI64(b, int64(dev.Totals.FF))
	b = appendI64(b, int64(dev.Totals.DSP))
	b = appendI64(b, int64(dev.Totals.BRAM))
	b = appendF64(b, cfg.Clock.PeriodNS)
	b = appendF64(b, cfg.Clock.UncertaintyNS)
	b = appendI64(b, cfg.Seed)
	b = appendI64(b, int64(cfg.Place.Moves))
	b = appendF64(b, cfg.Place.DensityWeight)
	b = appendF64(b, cfg.Place.ClusterWeight)
	b = appendI64(b, int64(cfg.Place.BinSize))
	b = appendI64(b, int64(cfg.Route.Iterations))
	b = appendF64(b, cfg.Route.HistoryGain)
	b = appendF64(b, cfg.Route.OverflowPenalty)
	b = appendF64(b, cfg.Route.MazeThreshold)
	b = appendI64(b, int64(cfg.Route.MazeSlack))
	md := cfg.Timing
	b = appendF64(b, md.BaseNS)
	b = appendF64(b, md.PerTileNS)
	b = appendF64(b, md.AvgKnee)
	b = appendF64(b, md.AvgSlope)
	b = appendF64(b, md.MaxSlope)
	b = appendF64(b, md.MaxOverNS)
	return appendBool(b, cfg.StrictConvergence)
}

func appendPlacement(b []byte, pl *place.Placement) []byte {
	b = appendU32(b, uint32(len(pl.Pos)))
	for _, p := range pl.Pos {
		b = appendI64(b, int64(p.X))
		b = appendI64(b, int64(p.Y))
	}
	b = appendI64(b, int64(pl.Stats.Moves))
	b = appendI64(b, int64(pl.Stats.Accepted))
	// Region centers keyed by function name, sorted for a canonical
	// encoding (same placement → same bytes).
	names := make([]string, 0, len(pl.RegionCenter))
	byName := make(map[string]fpga.XY, len(pl.RegionCenter))
	for f, xy := range pl.RegionCenter {
		names = append(names, f.Name)
		byName[f.Name] = xy
	}
	sort.Strings(names)
	b = appendU32(b, uint32(len(names)))
	for _, name := range names {
		b = appendString(b, name)
		b = appendI64(b, int64(byName[name].X))
		b = appendI64(b, int64(byName[name].Y))
	}
	return b
}

func appendRouting(b []byte, rr *route.Result) []byte {
	cols, rows := len(rr.Map.V), 0
	if cols > 0 {
		rows = len(rr.Map.V[0])
	}
	b = appendU32(b, uint32(cols))
	b = appendU32(b, uint32(rows))
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			b = appendF64(b, rr.Map.V[x][y])
		}
	}
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			b = appendF64(b, rr.Map.H[x][y])
		}
	}
	b = appendU32(b, uint32(len(rr.Pins)))
	for _, p := range rr.Pins {
		b = appendU32(b, uint32(p.Net.ID))
		b = appendU32(b, uint32(sinkIndex(p.Net, p.Sink)))
		b = appendI64(b, int64(p.Length))
		b = appendF64(b, p.AvgUtil)
		b = appendF64(b, p.MaxUtil)
	}
	b = appendI64(b, int64(rr.Overflow))
	return appendI64(b, int64(rr.Iterations))
}

// sinkIndex locates a pin's sink within its net (sinks are small slices,
// so a linear scan is fine).
func sinkIndex(n *rtl.Net, s rtl.Sink) int {
	for i, cand := range n.Sinks {
		if cand == s {
			return i
		}
	}
	return -1
}

// DecodeResult reconstructs a flow result from an encoded payload: it
// parses the module text, replays the deterministic front half of the flow
// (schedule, bind, elaborate) and resolves the stored back half against
// the re-derived netlist. Arbitrary input returns an error — never a panic
// (parse/schedule invariant panics are recovered) and never an unvalidated
// artifact (every index is bounds-checked; semantic verification is the
// caller's VerifyResultKey).
func DecodeResult(payload []byte) (res *flow.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("store: decode result: invalid payload: %v", r)
		}
	}()
	r := newReader(payload)
	if k := r.u8("payload kind"); r.err == nil && k != payloadResult {
		return nil, fmt.Errorf("store: payload kind %q is not a flow result", k)
	}
	if v := r.u8("payload version"); r.err == nil && v != resultVersion {
		return nil, fmt.Errorf("store: unsupported result version %d", v)
	}
	modText := r.str("module text")
	cfg := readConfig(r)
	if r.err != nil {
		return nil, r.err
	}
	m, err := ir.ParseText(strings.NewReader(modText))
	if err != nil {
		return nil, fmt.Errorf("store: decode module: %w", err)
	}
	sched, err := hls.ScheduleModule(m, cfg.Clock)
	if err != nil {
		return nil, fmt.Errorf("store: decode: reschedule: %w", err)
	}
	bind := hls.BindModule(sched)
	nl := rtl.Elaborate(bind)

	pl, err := readPlacement(r, cfg.Dev, nl, m)
	if err != nil {
		return nil, err
	}
	rr, err := readRouting(r, cfg.Dev, nl)
	if err != nil {
		return nil, err
	}
	rep := &timing.Report{
		CriticalNS:    r.f64("critical"),
		WNS:           r.f64("wns"),
		FmaxMHz:       r.f64("fmax"),
		LatencyCycles: r.i64("latency"),
	}
	conv := flow.Convergence{
		Converged:     r.bool("converged"),
		OverusedEdges: int(r.i64("overused")),
		Iterations:    int(r.i64("conv iterations")),
	}
	var tm flow.Timings
	for _, p := range []*int64{
		(*int64)(&tm.Schedule), (*int64)(&tm.Bind), (*int64)(&tm.Elaborate),
		(*int64)(&tm.Place), (*int64)(&tm.Route), (*int64)(&tm.Timing), (*int64)(&tm.Total),
	} {
		*p = r.i64("timings")
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("store: decode result: %d trailing bytes", r.remaining())
	}
	return &flow.Result{
		Mod: m, Config: cfg, Sched: sched, Bind: bind, Netlist: nl,
		Placement: pl, Routing: rr, Timing: rep, Convergence: conv, Timings: tm,
	}, nil
}

func readConfig(r *reader) flow.Config {
	dev := &fpga.Device{
		Name:     r.str("dev name"),
		Cols:     int(r.i64("dev cols")),
		Rows:     int(r.i64("dev rows")),
		DSPCols:  r.ints("dsp cols"),
		BRAMCols: r.ints("bram cols"),
		TileLUT:  int(r.i64("tile lut")),
		TileFF:   int(r.i64("tile ff")),
		TileDSP:  int(r.i64("tile dsp")),
		TileBRAM: int(r.i64("tile bram")),
		VCap:     r.f64("vcap"),
		HCap:     r.f64("hcap"),
		Totals: hls.Resources{
			LUT: int(r.i64("total lut")), FF: int(r.i64("total ff")),
			DSP: int(r.i64("total dsp")), BRAM: int(r.i64("total bram")),
		},
	}
	return flow.Config{
		Dev:   dev,
		Clock: hls.Clock{PeriodNS: r.f64("period"), UncertaintyNS: r.f64("uncertainty")},
		Seed:  r.i64("seed"),
		Place: place.Options{
			Moves:         int(r.i64("moves")),
			DensityWeight: r.f64("density weight"),
			ClusterWeight: r.f64("cluster weight"),
			BinSize:       int(r.i64("bin size")),
		},
		Route: route.Options{
			Iterations:      int(r.i64("route iterations")),
			HistoryGain:     r.f64("history gain"),
			OverflowPenalty: r.f64("overflow penalty"),
			MazeThreshold:   r.f64("maze threshold"),
			MazeSlack:       int(r.i64("maze slack")),
		},
		Timing: timing.Model{
			BaseNS: r.f64("base ns"), PerTileNS: r.f64("per tile ns"),
			AvgKnee: r.f64("avg knee"), AvgSlope: r.f64("avg slope"),
			MaxSlope: r.f64("max slope"), MaxOverNS: r.f64("max over ns"),
		},
		StrictConvergence: r.bool("strict"),
	}
}

func readPlacement(r *reader, dev *fpga.Device, nl *rtl.Netlist, m *ir.Module) (*place.Placement, error) {
	n := r.count(16, "positions")
	if r.err != nil {
		return nil, r.err
	}
	if n != len(nl.Cells) {
		return nil, fmt.Errorf("store: decode: %d positions for %d cells", n, len(nl.Cells))
	}
	pos := make([]fpga.XY, n)
	for i := range pos {
		pos[i] = fpga.XY{X: int(r.i64("pos x")), Y: int(r.i64("pos y"))}
		if r.err == nil && (pos[i].X < 0 || pos[i].X >= dev.Cols || pos[i].Y < 0 || pos[i].Y >= dev.Rows) {
			return nil, fmt.Errorf("store: decode: cell %d placed off-device at %v", i, pos[i])
		}
	}
	stats := place.PlaceStats{Moves: int(r.i64("place moves")), Accepted: int(r.i64("place accepted"))}
	funcs := make(map[string]*ir.Function, len(m.Funcs))
	for _, f := range m.Funcs {
		funcs[f.Name] = f
	}
	nc := r.count(4, "region centers")
	if r.err != nil {
		return nil, r.err
	}
	centers := make(map[*ir.Function]fpga.XY, nc)
	for i := 0; i < nc; i++ {
		name := r.str("region name")
		xy := fpga.XY{X: int(r.i64("region x")), Y: int(r.i64("region y"))}
		if r.err != nil {
			return nil, r.err
		}
		f := funcs[name]
		if f == nil {
			return nil, fmt.Errorf("store: decode: region center for unknown function %q", name)
		}
		centers[f] = xy
	}
	if r.err != nil {
		return nil, r.err
	}
	return &place.Placement{Dev: dev, NL: nl, Pos: pos, RegionCenter: centers, Stats: stats}, nil
}

func readRouting(r *reader, dev *fpga.Device, nl *rtl.Netlist) (*route.Result, error) {
	cols := int(r.u32("grid cols"))
	rows := int(r.u32("grid rows"))
	if r.err != nil {
		return nil, r.err
	}
	if cols != dev.Cols || rows != dev.Rows {
		return nil, fmt.Errorf("store: decode: %dx%d grid for a %dx%d device", cols, rows, dev.Cols, dev.Rows)
	}
	if r.remaining() < 16*cols*rows {
		return nil, fmt.Errorf("store: decode: truncated congestion grids")
	}
	cm := &congestion.Map{Dev: dev, V: make([][]float64, cols), H: make([][]float64, cols)}
	for _, grid := range []*[][]float64{&cm.V, &cm.H} {
		flat := make([]float64, cols*rows)
		for i := range flat {
			flat[i] = r.f64("grid")
		}
		for x := 0; x < cols; x++ {
			(*grid)[x] = flat[x*rows : (x+1)*rows : (x+1)*rows]
		}
	}
	np := r.count(32, "pins")
	if r.err != nil {
		return nil, r.err
	}
	pins := make([]route.PinStats, np)
	for i := range pins {
		netID := int(r.u32("pin net"))
		sinkIdx := int(r.u32("pin sink"))
		length := int(r.i64("pin length"))
		avg := r.f64("pin avg util")
		max := r.f64("pin max util")
		if r.err != nil {
			return nil, r.err
		}
		if netID < 0 || netID >= len(nl.Nets) {
			return nil, fmt.Errorf("store: decode: pin references net %d of %d", netID, len(nl.Nets))
		}
		net := nl.Nets[netID]
		if sinkIdx < 0 || sinkIdx >= len(net.Sinks) {
			return nil, fmt.Errorf("store: decode: pin references sink %d of %d on net %d",
				sinkIdx, len(net.Sinks), netID)
		}
		pins[i] = route.PinStats{Net: net, Sink: net.Sinks[sinkIdx], Length: length, AvgUtil: avg, MaxUtil: max}
	}
	rr := &route.Result{Map: cm, Pins: pins,
		Overflow: int(r.i64("overflow")), Iterations: int(r.i64("route iters"))}
	if r.err != nil {
		return nil, r.err
	}
	return rr, nil
}

// VerifyResultKey checks that a decoded result is exactly the artifact the
// key content-addresses: it recomputes flow.CacheKey over the decoded
// module and config and compares. Combined with the entry digest this is
// the store's end-to-end guarantee — a Get can miss, but it cannot lie.
func VerifyResultKey(res *flow.Result, key string) error {
	if res == nil || res.Mod == nil || res.Config.Dev == nil {
		return fmt.Errorf("store: verify: incomplete result")
	}
	if got := flow.CacheKey(res.Mod, res.Config); got != key {
		return fmt.Errorf("store: decoded result hashes to %.8s..., want %.8s...", got, key)
	}
	return nil
}
