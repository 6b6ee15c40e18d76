package analysis

import (
	"testing"

	"mermaid/internal/ops"
	"mermaid/internal/pearl"
)

// The disabled analyzer must be free: every model calls the Collector
// unconditionally, so with analysis off (nil *Collector, nil *Scope) none
// of those calls may allocate. These gates keep the bottleneck engine from
// taxing uninstrumented simulations.

func TestAllocFreeNilCollector(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var c *Collector
	if got := testing.AllocsPerRun(200, func() {
		c.SetMachine("m", 2, nil)
		c.RegisterCPU(0, "cpu", nil)
		c.RegisterResource("bus", "b", 1, nil)
		c.Resource("bus", nil)
		c.Compute(0, 0, 10)
		c.Send(0, 1, ops.Send, 0, 10)
		c.Recv(0, 1, ops.Recv, 0, 10)
		c.BlockSpan(0, 10, pearl.ReasonHold)
		_ = c.Enabled()
		_ = c.Analyze(100)
	}); got != 0 {
		t.Errorf("nil collector allocates %v times per op; want 0", got)
	}
}

func TestAllocFreeNilMonitor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var s *Scope // what a run without -monitor-addr holds
	if got := testing.AllocsPerRun(200, func() {
		s.Sample(Tick{At: 10})
		s.SetRuns(3)
		s.ObserveRun(100, 10)
		s.RunDone()
		s.Finish()
	}); got != 0 {
		t.Errorf("nil scope allocates %v times per op; want 0", got)
	}
}

// A live collector's record calls must cost no allocation in the steady
// state: span logs grow by whole chunks and never copy, and a block span adds
// to the row of its interned reason — no string is built, hashed or stored.
func TestCollectorRecordAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := pearl.NewKernel()
	c := New()
	c.SetMachine("m", 1, k)
	c.RegisterCPU(0, "cpu0", func() CPUSample { return CPUSample{} })
	c.RegisterCPU(1, "cpu1", func() CPUSample { return CPUSample{} })
	acquire := k.NewReason("acquire", "link.0.0.vc0")
	var at pearl.Time
	const n = 1 << 16
	got := testing.AllocsPerRun(n, func() {
		c.BlockSpan(at, at+1, acquire)
		c.BlockSpan(at, at+2, pearl.ReasonHold)
		c.Compute(0, at, at+1)
		c.Send(0, 1, ops.ASend, at, at+1)
		c.Recv(1, 0, ops.Recv, at, at+1)
		at += 2
	})
	// The span logs' chunks, one per 1,024 records past the first few, are
	// what AllocsPerRun's whole-allocations average counts as zero.
	if got != 0 {
		t.Errorf("recording allocates %v times per round; want 0 amortised", got)
	}
	rep := c.Analyze(at)
	if len(rep.Waits) != 2 || rep.Waits[0].Reason != "hold" || rep.Waits[1].Reason != "acquire link.0.0.vc0" {
		t.Errorf("waits = %+v", rep.Waits)
	}
}
