//go:build race

package place

// The race detector slows the annealer's inner loop several-fold; the
// paper-design equivalence skips itself here and runs in the plain suite.
const raceEnabled = true
