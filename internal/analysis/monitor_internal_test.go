package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
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

// TestScopeTakesTreesOnDemand: a scope nobody scrapes takes a report tree at
// its first tick and then once every maxTreeAge ticks, a read makes the next
// tick take a fresh one, the end-of-run report is always taken, and
// /progress follows every tick whether or not its tree was taken.
func TestScopeTakesTreesOnDemand(t *testing.T) {
	s := NewScope()
	builds := 0
	report := func() *stats.Set {
		builds++
		r := stats.NewSet("machine test")
		r.PutInt("build", int64(builds), "")
		return r
	}
	progress := func() (cycles int64, events uint64) {
		var b bytes.Buffer
		if err := s.WriteProgress(&b); err != nil {
			t.Fatal(err)
		}
		var p progressJSON
		if err := json.Unmarshal(b.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		return p.VirtualCycles, p.Events
	}
	metrics := func() string {
		var b strings.Builder
		if err := s.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	const ticks = 100
	for i := 1; i <= ticks; i++ {
		s.Sample(Tick{At: pearl.Time(10 * i), Events: uint64(3 * i), Report: report})
		if cycles, events := progress(); cycles != int64(10*i) || events != uint64(3*i) {
			t.Fatalf("tick %d: /progress shows %d cycles and %d events, want %d and %d", i, cycles, events, 10*i, 3*i)
		}
	}
	if limit := (ticks+maxTreeAge-1)/maxTreeAge + 1; builds > limit {
		t.Errorf("%d unread ticks built %d trees; want at most %d", ticks, builds, limit)
	}

	held := builds
	if got := metrics(); !strings.Contains(got, fmt.Sprintf("mermaid_build %d\n", held)) || !strings.Contains(got, "mermaid_virtual_cycles 1000\n") {
		t.Errorf("metrics after %d ticks, want the clock of the last and tree %d:\n%s", ticks, held, got)
	}
	s.Sample(Tick{At: 1010, Events: 303, Report: report})
	if builds != held+1 {
		t.Errorf("the tick after a read built %d trees; want 1", builds-held)
	}
	if got := metrics(); !strings.Contains(got, fmt.Sprintf("mermaid_build %d\n", builds)) {
		t.Errorf("metrics after the tick that followed a read, want tree %d:\n%s", builds, got)
	}

	s.Sample(Tick{At: 1015, Events: 305, Final: true, Report: report})
	if got := metrics(); !strings.Contains(got, fmt.Sprintf("mermaid_build %d\n", held+2)) || !strings.Contains(got, "mermaid_virtual_cycles 1015\n") {
		t.Errorf("metrics after the end of the run, want its report, tree %d:\n%s", held+2, got)
	}
}
