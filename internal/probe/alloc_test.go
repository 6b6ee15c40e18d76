package probe

import (
	"testing"

	"mermaid/internal/pearl"
)

// The disabled probe path must be free: components compiled with probe hooks
// but run without a probe (nil *Timeline, nil *Registry) may not allocate,
// and a kernel with a tracer installed may not allocate for processes that
// never opted into tracking. These gates keep the observability layer from
// taxing production simulations.

func TestAllocFreeNilTimeline(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var tl *Timeline
	tr := tl.Track("x")
	if got := testing.AllocsPerRun(200, func() {
		tl.Span(tr, "s", 0, 10)
		tl.Instant(tr, "i", 5)
	}); got != 0 {
		t.Errorf("nil timeline allocates %v times per op; want 0", got)
	}
}

func TestAllocFreeNilRegistry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var r *Registry
	if got := testing.AllocsPerRun(200, func() {
		r.Sample(10)
	}); got != 0 {
		t.Errorf("nil registry allocates %v times per op; want 0", got)
	}
}

func TestAllocFreeTracerUnattachedProcess(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A probe with a timeline, and a chain that reports no spans to it (the
	// counterpart of a process the kernel tracer used to look up and drop):
	// every link of the chain must stay allocation-free and record nothing.
	k := pearl.NewKernel()
	p := New(Config{Timeline: true})
	tl := p.Timeline()
	var c pearl.Chain
	c.Init(k, func() pearl.Step { return pearl.Step{Hold: 1} })
	c.Start()
	// Warm up, then measure single-cycle advances, one link each.
	at := k.RunUntil(64)
	if got := testing.AllocsPerRun(200, func() {
		at++
		k.RunUntil(at)
	}); got != 0 {
		t.Errorf("an unobserved chain allocates %v times per link; want 0", got)
	}
	if tl.Events() != 0 {
		t.Errorf("unobserved chain produced %d events", tl.Events())
	}
}
