//go:build race

package tile_test

// raceEnabled reports whether the race detector instruments this build. The
// equivalence test then checks its -short subset: the full sweep has no
// concurrent writer to catch and would only pay the detector's slowdown.
const raceEnabled = true
