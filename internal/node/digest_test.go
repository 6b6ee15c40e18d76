package node_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/core"
	"mermaid/internal/fault"
	"mermaid/internal/machine"
	"mermaid/internal/memory"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
	"mermaid/internal/workload"
)

// The detailed-mode models have no second implementation to be compared
// against: the memory hierarchy that blocked a process at every hold was
// rewritten in place as a resumable chain. What stands in for it is this
// table — SHA-256 over report, timeline JSON and bottleneck JSON of seeded
// detailed runs, printed by the tree as it was before the rewrite (commit
// beed453). A digest that moves means simulated behaviour moved: some event
// fires at another time, in another order, or not at all. If that is
// intended, re-pin it and say why.

// smallCache returns a cache small enough for mixedTrace's 12 KiB private
// window to overflow, so fills, victims and write-backs all happen.
func smallCache(name string, size, line, assoc int, lat pearl.Time, w cache.WritePolicy) cache.Config {
	return cache.Config{Name: name, Size: size, LineSize: line, Assoc: assoc, HitLatency: lat, Write: w}
}

// digestConfigs enumerates the valid corners of the hierarchy's configuration
// space. Secondary parameters (shared tier, latencies that may be zero, DRAM
// ports, replacement policy) rotate with the case number instead of
// multiplying the table.
func digestConfigs() []machine.Config {
	var out []machine.Config
	add := func(name string, hc cache.HierarchyConfig) {
		i := len(out)
		switch i % 3 { // the shared tier behind the bus
		case 1:
			hc.Shared = []cache.Config{smallCache("L3", 16<<10, 64, 4, 5, cache.WriteBack)}
		case 2:
			hc.Shared = []cache.Config{
				smallCache("L3", 4<<10, 32, 2, 3, cache.WriteThrough),
				smallCache("L4", 16<<10, 64, 2, 6, cache.WriteBack),
			}
		}
		if len(hc.Private) == 0 && len(hc.Shared) == 0 {
			hc.Shared = []cache.Config{smallCache("L1", 8<<10, 32, 2, 2, cache.WriteBack)}
		}
		if i%4 == 3 && len(hc.Private) > 0 {
			hc.Private[0].HitLatency = 0 // looked up at issue: no hold
		}
		if i%5 == 4 && len(hc.Private) > 0 {
			hc.Private[0].Replacement = cache.Random
		}
		hc.Bus.Width = 8
		hc.Bus.ArbitrationDelay = pearl.Time(i % 3) // 0 is a real case: no arbitration hold
		hc.Memory = memory.Config{ReadLatency: 9, WriteLatency: 11, BytesPerCycle: 8, Ports: 1 + i%2}
		if hc.Coherence != cache.NoCoherence {
			hc.CacheToCacheLatency = pearl.Time(4 * (i % 2))
			hc.DirLookupLatency = pearl.Time(2 * (i % 2)) // zero still yields: Hold(0)
			hc.DirMessageLatency = pearl.Time(3 * ((i + 1) % 2))
		}
		cfg := machine.PPC601Machine()
		cfg.Name = name
		cfg.Seed = uint64(100 + i)
		cfg.Node.Hierarchy = hc
		out = append(out, cfg)
	}
	private := func(levels int, innerWT, allWT bool) []cache.Config {
		w := func(wt bool) cache.WritePolicy {
			if wt {
				return cache.WriteThrough
			}
			return cache.WriteBack
		}
		p := []cache.Config{smallCache("", 2<<10, 16, 2, 1, w(innerWT || allWT))}
		if levels == 2 {
			p = append(p, smallCache("", 8<<10, 32, 4, 4, w(allWT)))
		}
		return p
	}
	l1i := smallCache("", 1<<10, 16, 2, 1, cache.WriteBack)
	crossbar := bus.Config{Kind: bus.KindCrossbar, Banks: 4, InterleaveBytes: 64}
	onOff := []bool{false, true}

	// One CPU, no coherence: write policies and the store buffer.
	for _, levels := range []int{1, 2} {
		for _, split := range onOff {
			for _, wp := range []string{"wb", "wt-inner", "wt", "wt-sb4"} {
				if wp == "wt-inner" && levels == 1 {
					continue
				}
				hc := cache.HierarchyConfig{
					CPUs: 1, SplitL1: split, L1I: l1i,
					Private: private(levels, wp == "wt-inner", wp == "wt" || wp == "wt-sb4"),
				}
				if wp == "wt-sb4" {
					hc.StoreBuffer = 4
				}
				if (levels+len(out))%2 == 0 {
					hc.Bus = crossbar
				}
				add(fmt.Sprintf("none/cpus=1/levels=%d/split=%v/%s/%s", levels, split, wp, busName(hc.Bus)), hc)
			}
		}
	}
	// Several CPUs, no coherence: a common hierarchy, no private level.
	for _, cpus := range []int{2, 4} {
		for _, b := range []bus.Config{{}, crossbar} {
			add(fmt.Sprintf("none/cpus=%d/common/%s", cpus, busName(b)), cache.HierarchyConfig{CPUs: cpus, Bus: b})
		}
	}
	// Coherent hierarchies: snoops need a broadcast bus, the directory takes
	// either interconnect.
	for _, coh := range []cache.Coherence{cache.Snoopy, cache.Directory} {
		for _, cpus := range []int{1, 2, 4} {
			for _, levels := range []int{1, 2} {
				for _, split := range onOff {
					for _, innerWT := range onOff {
						if innerWT && levels == 1 {
							continue
						}
						hc := cache.HierarchyConfig{
							CPUs: cpus, SplitL1: split, L1I: l1i, Coherence: coh,
							Private: private(levels, innerWT, false),
						}
						if coh == cache.Directory && (cpus+len(out))%2 == 0 {
							hc.Bus = crossbar
						}
						add(fmt.Sprintf("%v/cpus=%d/levels=%d/split=%v/innerWT=%v/%s",
							coh, cpus, levels, split, innerWT, busName(hc.Bus)), hc)
					}
				}
			}
		}
	}
	return out
}

// sharingTraces draws one stream per CPU in which every access — loads,
// stores and instruction fetches alike — falls into the same eight lines, so
// the CPUs race for ownership: upgrades lost before the bus is won, dirty
// lines supplied cache to cache, fetches of lines the data side has modified.
func sharingTraces(cpus, n int) [][]ops.Op {
	const window = 0x2000_0000
	traces := make([][]ops.Op, cpus)
	for c := range traces {
		r := pearl.NewRNG(uint64(7000 + c))
		for i := 0; i < n; i++ {
			addr := window + uint64(r.Intn(128))&^3
			switch r.Intn(6) {
			case 0:
				traces[c] = append(traces[c], ops.NewIFetch(addr))
			case 1, 2:
				traces[c] = append(traces[c], ops.NewLoad(ops.MemWord, addr))
			case 3, 4:
				traces[c] = append(traces[c], ops.NewStore(ops.MemWord, addr))
			case 5:
				traces[c] = append(traces[c], ops.NewArith(ops.Mul, ops.TypeInt))
			}
		}
	}
	return traces
}

func busName(b bus.Config) string {
	if b.Kind == bus.KindCrossbar {
		return "crossbar"
	}
	return "bus"
}

// digest runs cfg once with the timeline and the bottleneck collector on and
// hashes the three artifacts that between them show every simulated time.
func digest(t *testing.T, cfg machine.Config, run func(*machine.Machine) (*machine.Result, error)) string {
	t.Helper()
	pb := probe.New(probe.Config{Timeline: true})
	wb, err := core.New(cfg, core.WithProbe(pb), core.WithAnalysis())
	if err != nil {
		t.Fatal(err)
	}
	m, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(m)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d cycles, %d events, %d instructions\n", res.Cycles, res.Events, res.Instructions)
	if err := stats.RenderSet(h, res.Stats); err != nil {
		t.Fatal(err)
	}
	if err := m.MergedTimeline().WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	if err := res.Analysis.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func TestDetailedDigests(t *testing.T) {
	type tcase struct {
		cfg machine.Config
		run func(*machine.Machine) (*machine.Result, error)
	}
	stream := func(nodes, cpus, rounds, instrs int) func(*machine.Machine) (*machine.Result, error) {
		return func(m *machine.Machine) (*machine.Result, error) {
			return m.Run(sources(ringTraces(nodes, cpus, rounds, instrs)))
		}
	}
	var cases []tcase
	for _, cfg := range digestConfigs() {
		cases = append(cases, tcase{cfg, stream(1, cfg.Node.Hierarchy.CPUs, 1, 700)})
		if hc := cfg.Node.Hierarchy; hc.CPUs == 4 && hc.Coherence != cache.NoCoherence {
			cfg.Name += "/sharing"
			cases = append(cases, tcase{cfg, func(m *machine.Machine) (*machine.Result, error) {
				return m.Run(sources(sharingTraces(4, 600)))
			}})
		}
	}
	faulted := machine.T805Grid(3, 3)
	faulted.Name = "t805-grid-faulted"
	faulted.Seed = 99
	faulted.Faults = &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 10_000, To: 60_000}}},
		Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.02}},
		Retrans: fault.Retrans{Timeout: 200, Backoff: 2, MaxRetries: 16},
	}
	cases = append(cases,
		tcase{machine.T805Grid(4, 4), stream(16, 1, 3, 500)},
		tcase{machine.PPC601SMP(4), stream(1, 4, 1, 2000)},
		tcase{machine.HybridCluster(2, 2, 2), stream(4, 2, 3, 500)},
		tcase{machine.DSMCluster(2, 2), func(m *machine.Machine) (*machine.Result, error) {
			return m.RunProgram(workload.JacobiDSM(4, 64, 3))
		}},
		tcase{faulted, stream(9, 1, 3, 400)},
	)
	if len(cases) < 24 {
		t.Fatalf("only %d configurations", len(cases))
	}
	var table strings.Builder
	for _, tc := range cases {
		got := digest(t, tc.cfg, tc.run)
		fmt.Fprintf(&table, "\t%q: %q,\n", tc.cfg.Name, got)
		want, ok := detailedDigests[tc.cfg.Name]
		switch {
		case !ok:
			t.Errorf("%s: no digest pinned (got %s)", tc.cfg.Name, got)
		case got != want:
			t.Errorf("%s: digest %s, pinned %s: simulated behaviour moved", tc.cfg.Name, got, want)
		}
	}
	if len(detailedDigests) != len(cases) {
		t.Errorf("%d digests pinned for %d configurations", len(detailedDigests), len(cases))
	}
	if t.Failed() {
		t.Logf("digests of this tree:\n%s", table.String())
	}
}
