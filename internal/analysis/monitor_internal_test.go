package analysis

import (
	"math"
	"testing"
)

// eventsPerSec must never emit Inf or NaN into the /progress JSON — a request
// arriving in the tick the monitor started yields a zero interval, and a
// stepped host clock can even make it negative.
func TestEventsPerSecDegenerateIntervals(t *testing.T) {
	cases := []struct {
		name   string
		events uint64
		wall   float64
		want   float64
	}{
		{"zero interval", 1_000_000, 0, 0},
		{"negative interval", 1_000_000, -0.5, 0},
		{"NaN interval", 1_000_000, math.NaN(), 0},
		{"denormal interval overflows", math.MaxUint64, 5e-324, 0},
		{"no events yet", 0, 2.0, 0},
		{"normal", 3000, 1.5, 2000},
	}
	for _, tc := range cases {
		got := eventsPerSec(tc.events, tc.wall)
		if got != tc.want {
			t.Errorf("%s: eventsPerSec(%d, %g) = %g, want %g",
				tc.name, tc.events, tc.wall, got, tc.want)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("%s: non-finite rate %g", tc.name, got)
		}
	}
}
