package fault

import (
	"fmt"
	"testing"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
	"mermaid/internal/topology"
)

func ringTopo(t *testing.T, nodes int) topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Config{Kind: topology.Ring, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func portTo(t *testing.T, topo topology.Topology, from, to int) int {
	t.Helper()
	for port := 0; port < topo.Degree(); port++ {
		if topo.Neighbor(from, port) == to {
			return port
		}
	}
	t.Fatalf("no port %d -> %d", from, to)
	return -1
}

func TestInjectorWindowsApplyInVirtualTime(t *testing.T) {
	k := pearl.NewKernel()
	topo := ringTopo(t, 4)
	sched := Schedule{
		Links: []LinkFault{{A: 1, B: 2, Window: Window{From: 10, To: 20}}},
		Nodes: []NodeFault{{Node: 3, Window: Window{From: 15, To: 30}}},
	}
	inj, err := NewInjector(k, topo, sched, pearl.NewRNG(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p12 := portTo(t, topo, 1, 2)
	p23 := portTo(t, topo, 2, 3)
	type sample struct {
		at       pearl.Time
		linkDown bool // 1 -> 2
		nodeDown bool // node 3
	}
	var got []sample
	k.Spawn("observer", func(p *pearl.Process) {
		for _, at := range []pearl.Time{5, 12, 22, 35} {
			p.Hold(at - k.Now())
			got = append(got, sample{k.Now(), inj.LinkDown(1, p12), inj.NodeDown(3)})
		}
	})
	k.Run()
	want := []sample{
		{5, false, false},
		{12, true, false},  // link window active
		{22, false, true},  // link back up, node 3 crashed
		{35, false, false}, // all recovered
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A crashed endpoint also takes its links down (fail-stop at the NIC).
	_ = p23
}

func TestCrashedNodeTakesItsLinksDown(t *testing.T) {
	k := pearl.NewKernel()
	topo := ringTopo(t, 4)
	sched := Schedule{Nodes: []NodeFault{{Node: 3, Window: Window{From: 0, To: 10}}}}
	inj, err := NewInjector(k, topo, sched, pearl.NewRNG(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var into, outof bool
	k.Spawn("observer", func(p *pearl.Process) {
		p.Hold(5)
		into = inj.LinkDown(2, portTo(t, topo, 2, 3))  // link into the crashed node
		outof = inj.LinkDown(3, portTo(t, topo, 3, 2)) // link out of it
	})
	k.Run()
	if !into || !outof {
		t.Errorf("links of a crashed node: into=%v outof=%v, want both down", into, outof)
	}
}

// downtime reads node's downtime in a run that ended at end off the
// injector's report.
func downtime(t *testing.T, inj *Injector, node int, end pearl.Time) pearl.Time {
	t.Helper()
	name := fmt.Sprintf("node%d downtime", node)
	for _, m := range stats.Flatten(inj.Stats(end)) {
		if m.Name == name {
			return pearl.Time(m.Value)
		}
	}
	t.Fatalf("no %q in the report", name)
	return 0
}

// mergedDowntime is the reference for a node's downtime: the union of its
// crash windows clipped to [0, end), merged window by window.
func mergedDowntime(windows []NodeFault, node int, end pearl.Time) pearl.Time {
	var total, coveredTo pearl.Time
	for {
		// Earliest window for this node starting at or after coveredTo.
		best := pearl.Time(-1)
		var bestTo pearl.Time
		for _, nf := range windows {
			if nf.Node != node {
				continue
			}
			from, to, ok := nf.clip(end)
			if !ok || to <= coveredTo {
				continue
			}
			if from < coveredTo {
				from = coveredTo
			}
			if best < 0 || from < best {
				best, bestTo = from, to
			} else if from == best && to > bestTo {
				bestTo = to
			}
		}
		if best < 0 {
			return total
		}
		// Extend over overlapping windows.
		for changed := true; changed; {
			changed = false
			for _, nf := range windows {
				if nf.Node != node {
					continue
				}
				from, to, ok := nf.clip(end)
				if ok && from <= bestTo && to > bestTo {
					bestTo = to
					changed = true
				}
			}
		}
		total += bestTo - best
		coveredTo = bestTo
	}
}

func TestDowntimeMergesOverlappingWindows(t *testing.T) {
	k := pearl.NewKernel()
	topo := ringTopo(t, 4)
	sched := Schedule{Nodes: []NodeFault{
		{Node: 0, Window: Window{From: 10, To: 20}},
		{Node: 0, Window: Window{From: 15, To: 30}}, // overlaps the first
		{Node: 0, Window: Window{From: 40}},         // until the end
		{Node: 1, Window: Window{From: 0, To: 5}},   // different node
	}}
	inj, err := NewInjector(k, topo, sched, pearl.NewRNG(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := downtime(t, inj, 0, 50); d != 30 { // [10,30) + [40,50)
		t.Errorf("downtime(0, 50) = %d, want 30", d)
	}
	if d := downtime(t, inj, 0, 25); d != 15 { // [10,25)
		t.Errorf("downtime(0, 25) = %d, want 15", d)
	}
	if d := downtime(t, inj, 1, 50); d != 5 {
		t.Errorf("downtime(1, 50) = %d, want 5", d)
	}
}

// The report's downtimes, read off the sorted transitions in one pass, are
// the reference merge's on random windows — overlapping, nested, abutting,
// open-ended, and starting at or after the end of the run — of several
// nodes, beside link windows.
func TestDowntimeMatchesMerge(t *testing.T) {
	topo := ringTopo(t, 4)
	for seed := uint64(0); seed < 2000; seed++ {
		r := pearl.NewRNG(seed)
		var sched Schedule
		for i, n := 0, 1+r.Intn(6); i < n; i++ {
			w := Window{From: pearl.Time(r.Intn(60))}
			if r.Intn(4) != 0 {
				w.To = w.From + pearl.Time(1+r.Intn(30))
			}
			sched.Nodes = append(sched.Nodes, NodeFault{Node: r.Intn(3), Window: w})
		}
		if r.Intn(2) == 0 {
			sched.Links = append(sched.Links, LinkFault{A: 0, B: 1, Window: Window{From: pearl.Time(r.Intn(60))}})
		}
		inj, err := NewInjector(pearl.NewKernel(), topo, sched, pearl.NewRNG(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, end := range []pearl.Time{0, 1, pearl.Time(1 + r.Intn(100)), 100} {
			for _, node := range inj.crashable() {
				if got, want := downtime(t, inj, node, end), mergedDowntime(sched.Nodes, node, end); got != want {
					t.Fatalf("seed %d: node %d downtime to %d = %d, the merge gives %d (windows %+v)", seed, node, end, got, want, sched.Nodes)
				}
			}
		}
	}
}

func TestHopFateMatchesConfiguredProbabilities(t *testing.T) {
	k := pearl.NewKernel()
	topo := ringTopo(t, 4)
	sched := Schedule{Noise: []LinkNoise{{A: -1, B: -1, Drop: 0.3, Corrupt: 0.2}}}
	inj, err := NewInjector(k, topo, sched, pearl.NewRNG(42), nil)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 20000
	var drops, corrupts int
	for i := 0; i < draws; i++ {
		switch inj.HopFate(0, 0) {
		case dropped:
			drops++
		case corrupted:
			corrupts++
		}
	}
	if f := float64(drops) / draws; f < 0.27 || f > 0.33 {
		t.Errorf("drop fraction = %.3f, want ~0.3", f)
	}
	if f := float64(corrupts) / draws; f < 0.17 || f > 0.23 {
		t.Errorf("corrupt fraction = %.3f, want ~0.2", f)
	}
	if inj.drops.Value() != uint64(drops) || inj.corruptions.Value() != uint64(corrupts) {
		t.Errorf("counters %d/%d, want %d/%d", inj.drops.Value(), inj.corruptions.Value(), drops, corrupts)
	}
}

func TestOnChangeFiresAtTransitions(t *testing.T) {
	k := pearl.NewKernel()
	topo := ringTopo(t, 4)
	sched := Schedule{Links: []LinkFault{{A: 0, B: 1, Window: Window{From: 10, To: 20}}}}
	inj, err := NewInjector(k, topo, sched, pearl.NewRNG(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var calls []pearl.Time
	inj.OnChange(func() { calls = append(calls, k.Now()) })
	// Keep the kernel busy past the fault windows.
	k.Spawn("workload", func(p *pearl.Process) { p.Hold(25) })
	k.Run()
	// Once at registration (time 0), then at each transition.
	want := []pearl.Time{0, 10, 20}
	if len(calls) != len(want) {
		t.Fatalf("onChange calls at %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("onChange calls at %v, want %v", calls, want)
		}
	}
}

func TestFaultChainStopsWithIdleKernel(t *testing.T) {
	// A fault plan stretching far beyond the workload must not keep the
	// simulation alive: with nothing left to route, the remaining schedule
	// is unobservable.
	k := pearl.NewKernel()
	topo := ringTopo(t, 4)
	sched := Schedule{Links: []LinkFault{
		{A: 0, B: 1, Window: Window{From: 10, To: 1_000_000}},
	}}
	if _, err := NewInjector(k, topo, sched, pearl.NewRNG(1), nil); err != nil {
		t.Fatal(err)
	}
	k.Spawn("workload", func(p *pearl.Process) { p.Hold(100) })
	if end := k.Run(); end != 100 {
		t.Errorf("run ended at %d, want 100 (fault schedule extended the run)", end)
	}
}

func TestNewInjectorRejects(t *testing.T) {
	k := pearl.NewKernel()
	topo := ringTopo(t, 4)
	cases := []Schedule{
		{},                                 // empty
		{Links: []LinkFault{{A: 0, B: 2}}}, // not neighbours on a 4-ring
		{Noise: []LinkNoise{{A: 0, B: 2, Drop: 0.1}}},                              // ditto
		{Nodes: []NodeFault{{Node: 7}}},                                            // out of range
		{Noise: []LinkNoise{{A: -1, B: -1, Drop: 0.7}, {A: -1, B: -1, Drop: 0.7}}}, // sums past 1
	}
	for i, s := range cases {
		if _, err := NewInjector(k, topo, s, pearl.NewRNG(1), nil); err == nil {
			t.Errorf("schedule %d accepted", i)
		}
	}
}

func TestNilInjectorIsDisabledSubsystem(t *testing.T) {
	var inj *Injector
	if inj.LinkDown(0, 0) || inj.NodeDown(0) || !inj.Alive(0, 0) {
		t.Error("nil injector reports faults")
	}
	if inj.HopFate(0, 0) != OK {
		t.Error("nil injector drops packets")
	}
	if rt := inj.Retrans(); rt.Timeout != 500 {
		t.Errorf("nil injector retrans = %+v", rt)
	}
	inj.CountDrop()
	inj.OnChange(func() { t.Error("nil injector invoked a change callback") })
	inj.Finish(100)
}
