//go:build race

package experiments

// Under the race detector the full-size fits in TestTableIVClaims take
// many minutes; that test skips itself here, and the no-race run of the
// suite still checks the claims.
const raceEnabled = true
