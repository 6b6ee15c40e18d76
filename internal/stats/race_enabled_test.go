//go:build race

package stats

// raceEnabled reports whether the race detector is compiled in; allocation
// counts are not meaningful under its instrumentation.
const raceEnabled = true
