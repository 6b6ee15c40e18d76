package node

// SetRunAhead turns running ahead on or off, for the tests that compare it
// with the per-event path, and returns the function that restores the
// setting.
func SetRunAhead(on bool) (restore func()) {
	old := runAhead
	runAhead = on
	return func() { runAhead = old }
}

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = raceEnabled
