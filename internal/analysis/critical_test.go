package analysis

import (
	"testing"

	"mermaid/internal/ops"
	"mermaid/internal/pearl"
)

func segSum(segs []PathSegment) int64 {
	var s int64
	for _, seg := range segs {
		s += seg.Cycles
	}
	return s
}

func find(segs []PathSegment, component, kind string) (PathSegment, bool) {
	for _, seg := range segs {
		if seg.Component == component && seg.Kind == kind {
			return seg, true
		}
	}
	return PathSegment{}, false
}

// A receive that completed when the message arrived must pull the walk
// through the network onto the sender: the gap between send completion and
// receive completion is attributed to the network, the rest to the sender's
// own activity — and the segments still partition the run exactly.
func TestCriticalPathNetworkJump(t *testing.T) {
	c := New()
	c.SetMachine("m", 1, nil)
	c.RegisterCPU(0, "node0.cpu0", func() CPUSample { return CPUSample{} })
	c.RegisterCPU(1, "node1.cpu0", func() CPUSample { return CPUSample{} })

	c.Compute(0, 0, 40)
	c.Send(0, 1, ops.Send, 40, 60)
	c.Recv(1, 0, ops.Recv, 0, 70) // completes when the message lands at t=70
	c.Compute(1, 70, 100)

	segs := c.criticalPath(100)
	if got := segSum(segs); got != 100 {
		t.Fatalf("critical path sums to %d, want 100 (segments: %+v)", got, segs)
	}
	for _, want := range []struct {
		component, kind string
		cycles          int64
	}{
		{"node0.cpu0", "compute", 40},
		{"node1.cpu0", "compute", 30},
		{"node0.cpu0", "send", 20},
		{"network", "network", 10},
	} {
		seg, ok := find(segs, want.component, want.kind)
		if !ok {
			t.Errorf("missing segment %s/%s (segments: %+v)", want.component, want.kind, segs)
			continue
		}
		if seg.Cycles != want.cycles {
			t.Errorf("segment %s/%s = %d cycles, want %d", want.component, want.kind, seg.Cycles, want.cycles)
		}
	}
}

// A receive whose message was already waiting (send completed before the
// receive began) is the receiver's own overhead, not a network dependency:
// the walk charges it as "<op> wait" and stays on the same processor.
func TestCriticalPathRecvWait(t *testing.T) {
	c := New()
	c.SetMachine("m", 1, nil)
	c.RegisterCPU(0, "node0.cpu0", func() CPUSample { return CPUSample{} })
	c.RegisterCPU(1, "node1.cpu0", func() CPUSample { return CPUSample{} })

	c.Send(0, 1, ops.Send, 0, 10)
	c.Recv(1, 0, ops.Recv, 20, 30)
	c.Compute(1, 30, 50)

	segs := c.criticalPath(50)
	if got := segSum(segs); got != 50 {
		t.Fatalf("critical path sums to %d, want 50 (segments: %+v)", got, segs)
	}
	if seg, ok := find(segs, "node1.cpu0", "recv wait"); !ok || seg.Cycles != 10 {
		t.Errorf("recv wait segment = %+v, ok=%v; want 10 cycles on node1.cpu0", seg, ok)
	}
	if seg, ok := find(segs, "node1.cpu0", "idle"); !ok || seg.Cycles != 20 {
		t.Errorf("idle segment = %+v, ok=%v; want 20 cycles on node1.cpu0", seg, ok)
	}
	if _, ok := find(segs, "network", "network"); ok {
		t.Errorf("unexpected network segment for an already-delivered message: %+v", segs)
	}
}

// The decomposition identity: for every CPU the four classes sum exactly to
// the run length, with idle as the exact remainder.
func TestAnalyzeDecompositionIdentity(t *testing.T) {
	c := New()
	c.SetMachine("m", 1, nil)
	c.RegisterCPU(0, "cpu0", func() CPUSample {
		return CPUSample{Compute: 500, MemStall: 137, CommBlocked: 42}
	})
	c.RegisterCPU(1, "cpu1", func() CPUSample {
		return CPUSample{Compute: 999, MemStall: 1}
	})
	rep := c.Analyze(1000)
	if len(rep.CPUs) != 2 {
		t.Fatalf("report has %d CPUs, want 2", len(rep.CPUs))
	}
	for _, d := range rep.CPUs {
		if sum := d.Compute + d.MemStall + d.CommBlocked + d.Idle; sum != rep.Cycles {
			t.Errorf("cpu %s decomposition sums to %d, want %d", d.Name, sum, rep.Cycles)
		}
	}
	if rep.CPUs[0].Idle != 1000-500-137-42 {
		t.Errorf("cpu0 idle = %d, want exact remainder %d", rep.CPUs[0].Idle, 1000-500-137-42)
	}
	if rep.CPUs[1].Idle != 0 {
		t.Errorf("cpu1 idle = %d, want 0", rep.CPUs[1].Idle)
	}
}

// Blocked intervals aggregate by reason text, named by the kernel only at
// analysis, and render sorted by cycles; resources score into the ranked
// summary.
func TestAnalyzeWaitsAndRank(t *testing.T) {
	k := pearl.NewKernel()
	c := New()
	c.SetMachine("m", 1, k)
	busy := pearl.Time(900)
	c.RegisterResource("bus", "node0.bus.0", 1, func() ResourceSample {
		return ResourceSample{Busy: busy, Wait: 300, Acquires: 10}
	})
	bus := k.NewReason("acquire", "node0.bus.0")
	twin := k.NewReason("acquire", "node0.bus.0") // same text: same row
	k.NewReason("acquire", "idle")                // never waited: no row
	c.BlockSpan(0, 100, bus)
	c.BlockSpan(0, 50, pearl.ReasonHold)
	c.BlockSpan(100, 300, twin)

	rep := c.Analyze(1000)
	if len(rep.Waits) != 2 {
		t.Fatalf("report has %d wait rows, want 2", len(rep.Waits))
	}
	if rep.Waits[0].Reason != "acquire node0.bus.0" || rep.Waits[0].Cycles != 300 || rep.Waits[0].Count != 2 {
		t.Errorf("top wait row = %+v, want acquire node0.bus.0 / 300 / 2", rep.Waits[0])
	}
	if rep.Waits[1].Reason != "hold" || rep.Waits[1].Cycles != 50 {
		t.Errorf("second wait row = %+v, want hold / 50 / 1", rep.Waits[1])
	}
	if len(rep.Bottlenecks) == 0 {
		t.Fatal("report has no bottlenecks despite a 90%-utilized bus")
	}
	top := rep.Bottlenecks[0]
	if top.Component != "node0.bus.0" || top.Rank != 1 {
		t.Errorf("top bottleneck = %+v, want node0.bus.0 at rank 1", top)
	}
	if want := 0.9 + 300.0/1000.0; top.Score != want {
		t.Errorf("top bottleneck score = %v, want %v", top.Score, want)
	}
}
