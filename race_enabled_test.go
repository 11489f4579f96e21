//go:build race

package repro

// Under the race detector the full-size GBRT fit in TestDatasetPin takes
// minutes, not seconds; that test skips only the fit here, and the
// no-race run of the suite still checks the predictor pin.
const raceEnabled = true
