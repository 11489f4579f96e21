// Package congestion defines the per-tile routing-congestion map the whole
// reproduction revolves around: for every fabric tile, the percentage of
// vertical and horizontal routing resources demanded by the routed design.
// Values above 100 % mean the router had to detour around the tile — the
// exact definition the paper takes from Vivado's congestion reports.
package congestion

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/fpga"
)

// Map holds vertical and horizontal congestion percentages per tile,
// indexed [x][y].
type Map struct {
	Dev *fpga.Device
	V   [][]float64
	H   [][]float64
}

// New returns a zeroed congestion map for a device.
func New(dev *fpga.Device) *Map {
	m := &Map{Dev: dev, V: make([][]float64, dev.Cols), H: make([][]float64, dev.Cols)}
	for x := 0; x < dev.Cols; x++ {
		m.V[x] = make([]float64, dev.Rows)
		m.H[x] = make([]float64, dev.Rows)
	}
	return m
}

// VAt returns the vertical congestion percentage at a tile.
func (m *Map) VAt(p fpga.XY) float64 { return m.V[p.X][p.Y] }

// HAt returns the horizontal congestion percentage at a tile.
func (m *Map) HAt(p fpga.XY) float64 { return m.H[p.X][p.Y] }

// AvgAt returns the paper's "Avg (V, H)" metric at a tile: the mean of the
// two directional percentages.
func (m *Map) AvgAt(p fpga.XY) float64 { return (m.V[p.X][p.Y] + m.H[p.X][p.Y]) / 2 }

// Metric selects one of the three congestion views of a map.
type Metric int

const (
	// Vertical selects the vertical congestion percentage.
	Vertical Metric = iota
	// Horizontal selects the horizontal congestion percentage.
	Horizontal
	// Average selects the mean of the two directions.
	Average
)

func (mt Metric) String() string {
	switch mt {
	case Vertical:
		return "Vertical"
	case Horizontal:
		return "Horizontal"
	case Average:
		return "Avg (V, H)"
	}
	return "?"
}

// At returns the selected metric at a tile.
func (m *Map) At(mt Metric, p fpga.XY) float64 {
	switch mt {
	case Vertical:
		return m.VAt(p)
	case Horizontal:
		return m.HAt(p)
	default:
		return m.AvgAt(p)
	}
}

// Summary aggregates a congestion metric across the die.
type Summary struct {
	Max, Min, Mean float64
}

// Summarize computes the min/max/mean of a metric over all tiles.
func (m *Map) Summarize(mt Metric) Summary {
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	n := 0
	for x := 0; x < m.Dev.Cols; x++ {
		for y := 0; y < m.Dev.Rows; y++ {
			v := m.At(mt, fpga.XY{X: x, Y: y})
			if v > s.Max {
				s.Max = v
			}
			if v < s.Min {
				s.Min = v
			}
			s.Mean += v
			n++
		}
	}
	if n > 0 {
		s.Mean /= float64(n)
	}
	return s
}

// MaxCongestion returns the largest of the vertical and horizontal maxima —
// the paper's "Max Congestion (%)" column.
func (m *Map) MaxCongestion() float64 {
	v := m.Summarize(Vertical).Max
	h := m.Summarize(Horizontal).Max
	return math.Max(v, h)
}

// CongestedTiles counts tiles whose metric exceeds the threshold (the
// paper's "#Congested CLBs (>100%)" uses threshold 100 on either
// direction).
func (m *Map) CongestedTiles(threshold float64) int {
	n := 0
	for x := 0; x < m.Dev.Cols; x++ {
		for y := 0; y < m.Dev.Rows; y++ {
			if m.V[x][y] > threshold || m.H[x][y] > threshold {
				n++
			}
		}
	}
	return n
}

// RadialProfile bins tiles by normalized distance from the die center and
// returns the mean of the metric per bin — the quantitative form of the
// paper's Fig. 5 (low congestion at the margin, high in the middle).
func (m *Map) RadialProfile(mt Metric, bins int) []float64 {
	if bins < 1 {
		bins = 1
	}
	sums := make([]float64, bins)
	counts := make([]int, bins)
	for x := 0; x < m.Dev.Cols; x++ {
		for y := 0; y < m.Dev.Rows; y++ {
			p := fpga.XY{X: x, Y: y}
			b := int(m.Dev.CenterDist(p) * float64(bins))
			if b >= bins {
				b = bins - 1
			}
			sums[b] += m.At(mt, p)
			counts[b]++
		}
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= float64(counts[i])
		}
	}
	return sums
}

// heatRamp maps intensity 0..1 to a character, mimicking the color ramp of
// Vivado's congestion view.
var heatRamp = []byte(" .:-=+*#%@")

// RenderASCII draws the metric as a downsampled character heat map, scaled
// so 200 % saturates the ramp. Rows print top-down like the Vivado device
// view; each character covers a cellW x cellH tile block.
func (m *Map) RenderASCII(mt Metric, cellW, cellH int) string {
	if cellW < 1 {
		cellW = 1
	}
	if cellH < 1 {
		cellH = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s congestion (%% of routing capacity), '%c'=0%% .. '%c'>=200%%\n",
		mt, heatRamp[0], heatRamp[len(heatRamp)-1])
	for yTop := m.Dev.Rows - 1; yTop >= 0; yTop -= cellH {
		for x0 := 0; x0 < m.Dev.Cols; x0 += cellW {
			sum, n := 0.0, 0
			for dx := 0; dx < cellW && x0+dx < m.Dev.Cols; dx++ {
				for dy := 0; dy < cellH && yTop-dy >= 0; dy++ {
					sum += m.At(mt, fpga.XY{X: x0 + dx, Y: yTop - dy})
					n++
				}
			}
			v := sum / float64(n) / 200.0
			if v > 1 {
				v = 1
			}
			if v < 0 {
				v = 0
			}
			idx := int(v * float64(len(heatRamp)-1))
			b.WriteByte(heatRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
