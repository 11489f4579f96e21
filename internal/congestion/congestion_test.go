package congestion

import (
	"strings"
	"testing"

	"repro/internal/fpga"
)

func testMap() *Map {
	dev := fpga.XC7Z020()
	m := New(dev)
	// Deterministic gradient: hotter toward the center.
	for x := 0; x < dev.Cols; x++ {
		for y := 0; y < dev.Rows; y++ {
			d := dev.CenterDist(fpga.XY{X: x, Y: y})
			m.V[x][y] = 150 * (1 - d)
			m.H[x][y] = 100 * (1 - d)
		}
	}
	return m
}

func TestMetricsAt(t *testing.T) {
	m := testMap()
	p := fpga.XY{X: 5, Y: 5}
	if m.At(Vertical, p) != m.VAt(p) || m.At(Horizontal, p) != m.HAt(p) {
		t.Error("At() disagrees with direct accessors")
	}
	want := (m.VAt(p) + m.HAt(p)) / 2
	if m.AvgAt(p) != want || m.At(Average, p) != want {
		t.Error("AvgAt wrong")
	}
}

func TestMetricString(t *testing.T) {
	if Vertical.String() != "Vertical" || Horizontal.String() != "Horizontal" {
		t.Error("metric names wrong")
	}
	if !strings.Contains(Average.String(), "V, H") {
		t.Errorf("Average.String() = %q", Average.String())
	}
}

func TestSummarize(t *testing.T) {
	m := testMap()
	s := m.Summarize(Vertical)
	if s.Min < 0 || s.Max > 150.01 || s.Mean <= s.Min || s.Mean >= s.Max {
		t.Errorf("summary out of range: %+v", s)
	}
	if m.MaxCongestion() != s.Max {
		t.Errorf("MaxCongestion = %v, want V max %v (V dominates here)", m.MaxCongestion(), s.Max)
	}
}

func TestCongestedTiles(t *testing.T) {
	m := testMap()
	over100 := m.CongestedTiles(100)
	over140 := m.CongestedTiles(140)
	if over100 <= over140 {
		t.Errorf("higher threshold must catch fewer tiles: %d vs %d", over100, over140)
	}
	if m.CongestedTiles(1000) != 0 {
		t.Error("nothing should exceed 1000%")
	}
}

func TestRadialProfileCenterHot(t *testing.T) {
	m := testMap()
	prof := m.RadialProfile(Vertical, 6)
	if len(prof) != 6 {
		t.Fatalf("profile bins = %d", len(prof))
	}
	if prof[0] <= prof[len(prof)-1] {
		t.Errorf("center bin %v must exceed margin bin %v", prof[0], prof[len(prof)-1])
	}
	for i := 1; i < len(prof); i++ {
		if prof[i] > prof[i-1]+1e-9 {
			t.Errorf("profile not monotone at bin %d: %v", i, prof)
		}
	}
}

func TestRenderASCII(t *testing.T) {
	m := testMap()
	out := m.RenderASCII(Average, 2, 4)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	wantRows := (m.Dev.Rows + 3) / 4
	if len(lines)-1 != wantRows {
		t.Errorf("rendered %d rows, want %d", len(lines)-1, wantRows)
	}
	wantCols := (m.Dev.Cols + 1) / 2
	if len(lines[1]) != wantCols {
		t.Errorf("rendered %d cols, want %d", len(lines[1]), wantCols)
	}
	// The center of the map must render hotter than the corner.
	mid := lines[1+wantRows/2]
	if !strings.ContainsAny(mid, "=+*#%@") {
		t.Errorf("center row %q shows no heat", mid)
	}
	// Degenerate cell sizes clamp instead of crashing.
	_ = m.RenderASCII(Vertical, 0, 0)
}

func TestZeroMap(t *testing.T) {
	m := New(fpga.XC7Z020())
	s := m.Summarize(Average)
	if s.Max != 0 || s.Min != 0 || s.Mean != 0 {
		t.Errorf("zero map summary %+v", s)
	}
	if m.CongestedTiles(0) != 0 {
		t.Error("zero map has congested tiles at threshold 0")
	}
}
