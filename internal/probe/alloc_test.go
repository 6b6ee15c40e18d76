package probe

import (
	"testing"

	"mermaid/internal/pearl"
)

// The disabled probe path must be free: components compiled with probe hooks
// but run without a probe (a nil *Timeline) may not allocate, and a kernel
// with a tracer installed may not allocate for processes that never opted
// into tracking. These gates keep the observability layer from
// taxing production simulations.

func TestAllocFreeNilTimeline(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var tl *Timeline
	tr := tl.Track("x")
	open := -1
	if got := testing.AllocsPerRun(200, func() {
		tl.Span(tr, "s", 0, 10)
		tl.NamedSpan(tr, tl.Name("n"), 0, 10)
		tl.ExtendSpan(&open, tr, tl.Name("n"), 0, 10)
	}); got != 0 {
		t.Errorf("nil timeline allocates %v times per op; want 0", got)
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

// A live timeline's span with an interned name must allocate nothing in the
// steady state: records are pointer-free and chunked, so appending copies
// nothing already recorded, and the name is a number. Only the chunks
// themselves allocate, one per 1,024 records once they stop doubling, which
// AllocsPerRun's whole-allocations average counts as zero.
func TestTimelineNamedSpanAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tl := NewTimeline()
	tr := tl.Track("net.link0.0.vc0")
	pkt := tl.Name("pkt")
	var at pearl.Time
	if got := testing.AllocsPerRun(1<<16, func() {
		tl.NamedSpan(tr, pkt, at, at+3)
		at++
	}); got != 0 {
		t.Errorf("a span with an interned name allocates %v times; want 0 amortised", got)
	}
	// Span by string interns on first use and then looks the name up.
	if got := testing.AllocsPerRun(1<<16, func() {
		tl.Span(tr, "pkt", at, at+3)
		at++
	}); got != 0 {
		t.Errorf("a span by a seen name allocates %v times; want 0 amortised", got)
	}
	// ExtendSpan, alternately opening a span and extending it: every other
	// span starts one cycle after the last one ends.
	open, n := -1, pearl.Time(0)
	if got := testing.AllocsPerRun(1<<16, func() {
		tl.ExtendSpan(&open, tr, pkt, at, at+1)
		at += 1 + n%2
		n++
	}); got != 0 {
		t.Errorf("ExtendSpan allocates %v times; want 0 amortised", got)
	}
}
