package node_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/dsm"
	"mermaid/internal/fault"
	"mermaid/internal/machine"
	"mermaid/internal/memory"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// The detailed-mode models have no second implementation to be compared
// against: the memory hierarchy that blocked a process at every hold was
// rewritten in place as a resumable chain, and the CPU runners, store-buffer
// drains and DSM servers that waited in processes became state machines in
// turn. What stands in for the old code is these tables — SHA-256 over
// report, timeline JSON and bottleneck JSON of seeded detailed runs, printed
// by the tree as it was before each rewrite (detailedDigests by commit
// beed453; observedDigests, which add the bottleneck text, a metrics
// sampler's CSV and exported task traces, by commit 367e6bd). When CPU
// runners began to record one span per run of waits, both were re-printed by
// commit c9229e9, the last tree that recorded each wait as a span of its own,
// over its timelines put through coalesce; every timeline now must equal its
// coalesced self. The faulted digests were re-printed when fault
// accounting joined the report. Both tables were re-printed once more, by
// commit 07645d3, when the report stopped being hashed together with the
// metric registry's snapshot: they hash the report alone, and the metrics
// CSV is pinned apart in metricsCSVDigests. That table was re-printed once,
// when the registry gave way to the sampled report and the CSV's columns
// became report paths. The timelines are pinned apart too, in
// detailedTimelineDigests and observedTimelineDigests, split off by commit
// 944c536 from the hash of report and bottleneck JSON that the first two
// tables keep. The observed cases keep the "/shards=0" of the time they also ran on the
// parallel engine, which now runs task-level machines only. A digest that
// moves means
// simulated behaviour moved: some event fires at another time, in another
// order, or not at all. If that is intended, re-pin it and say why.

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
// hashes the three artifacts that between them show every simulated time:
// the report with the bottleneck JSON, and the timeline apart.
func digest(t *testing.T, cfg machine.Config, run func(*machine.Machine) (*machine.Result, error)) (report, timeline string) {
	t.Helper()
	env := observedEnv(cfg)
	m, err := machine.Build(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(m)
	if err != nil {
		t.Fatal(err)
	}
	noSwitches(t, env.Kernel)
	h := sha256.New()
	fmt.Fprintf(h, "%d cycles, %d events, %d instructions\n", res.Cycles, res.Events, res.Instructions)
	if err := stats.RenderSet(h, res.Stats); err != nil {
		t.Fatal(err)
	}
	if err := res.Analysis.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	var tl strings.Builder
	if err := m.MergedTimeline().WriteJSON(&tl); err != nil {
		t.Fatal(err)
	}
	th := sha256.New()
	io.WriteString(th, coalesced(t, tl.String()))
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), fmt.Sprintf("%x", th.Sum(nil)[:12])
}

// pinned fails the test unless table pins got under name, and writes the
// entry to the printed table.
func pinned(t *testing.T, printed *strings.Builder, table map[string]string, name, got string) {
	t.Helper()
	fmt.Fprintf(printed, "\t%q: %q,\n", name, got)
	if want, ok := table[name]; !ok {
		t.Errorf("%s: no digest pinned (got %s)", name, got)
	} else if got != want {
		t.Errorf("%s: digest %s, pinned %s: simulated behaviour moved", name, got, want)
	}
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
	var table, tlTable strings.Builder
	for _, tc := range cases {
		report, timeline := digest(t, tc.cfg, tc.run)
		pinned(t, &table, detailedDigests, tc.cfg.Name, report)
		pinned(t, &tlTable, detailedTimelineDigests, tc.cfg.Name, timeline)
	}
	if len(detailedDigests) != len(cases) || len(detailedTimelineDigests) != len(cases) {
		t.Errorf("%d and %d digests pinned for %d configurations", len(detailedDigests), len(detailedTimelineDigests), len(cases))
	}
	if t.Failed() {
		t.Logf("digests of this tree:\n%s", table.String())
		t.Logf("timeline digests of this tree:\n%s", tlTable.String())
	}

	// Every kind of node, with every artifact the workbench writes about a
	// run: the timeline, the bottleneck text and JSON and the CSV of a
	// metrics sampler ticking through the run.
	table.Reset()
	tlTable.Reset()
	var csvTable strings.Builder
	for _, tc := range observedCases() {
		t.Run(tc.name, func(t *testing.T) {
			var sinks []*bytes.Buffer
			run := tc.run
			if tc.sinks {
				run = func(m *machine.Machine) (*machine.Result, error) {
					for s := 0; s < m.Streams(); s++ {
						sinks = append(sinks, new(bytes.Buffer))
						if err := m.SetTaskSink(s, sinks[s]); err != nil {
							return nil, err
						}
					}
					res, err := tc.run(m)
					if err == nil {
						err = m.FlushTaskSinks()
					}
					return res, err
				}
			}
			arts := observe(t, tc.cfg, tc.every, run)
			for s, b := range sinks {
				arts[fmt.Sprintf("task sink %d", s)] = b.String()
			}
			if tc.check != nil {
				tc.check(t, arts)
			}
			// The metrics CSV and the timeline are pinned apart.
			for _, apart := range []struct {
				name  string
				table map[string]string
				out   *strings.Builder
			}{{metricsCSV, metricsCSVDigests, &csvTable}, {"timeline", observedTimelineDigests, &tlTable}} {
				pinned(t, apart.out, apart.table, tc.name, hashArtifacts(map[string]string{apart.name: arts[apart.name]}))
				delete(arts, apart.name)
			}
			pinned(t, &table, observedDigests, tc.name, hashArtifacts(arts))
		})
	}
	if t.Failed() {
		t.Logf("observed digests of this tree:\n%s", table.String())
		t.Logf("observed timeline digests of this tree:\n%s", tlTable.String())
		t.Logf("metrics CSV digests of this tree:\n%s", csvTable.String())
	}
}

// observedEnv is cfg's environment with the timeline and the bottleneck
// collector attached.
func observedEnv(cfg machine.Config) sim.Env {
	return sim.NewEnv(cfg.Seed, probe.New(probe.Config{Timeline: true})).WithCollector(analysis.New())
}

// noSwitches fails the test unless the machine's kernel k ran its events
// without a hand-off: nothing in a machine runs on a stack of its own.
func noSwitches(t *testing.T, k *pearl.Kernel) {
	t.Helper()
	if n := k.Switches(); n != 0 {
		t.Errorf("%d switches", n)
	}
}

// hashArtifacts digests a run's artifacts in name order.
func hashArtifacts(arts map[string]string) string {
	names := make([]string, 0, len(arts))
	for name := range arts {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "== %s ==\n%s\n", name, arts[name])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

type observedCase struct {
	name  string
	cfg   machine.Config
	every pearl.Time // metrics sampler interval on one kernel
	run   func(*machine.Machine) (*machine.Result, error)
	sinks bool // also digest the task-level trace every stream exports
	check func(*testing.T, map[string]string)
}

// observedCases are the machines whose components wait in the model's own
// state machines — CPU runners, store-buffer drains, DSM managers and request
// handlers — and the outputs those write.
func observedCases() []observedCase {
	stream := func(traces [][]ops.Op) func(*machine.Machine) (*machine.Result, error) {
		return func(m *machine.Machine) (*machine.Result, error) { return m.Run(sources(traces)) }
	}
	storeBuffered := machine.PPC601Machine()
	storeBuffered.Name = "ppc601-store-buffer"
	for i := range storeBuffered.Node.Hierarchy.Private {
		storeBuffered.Node.Hierarchy.Private[i].Write = cache.WriteThrough
	}
	storeBuffered.Node.Hierarchy.StoreBuffer = 4
	splitL1 := machine.PPC601Machine()
	splitL1.Name = "ppc601-split-l1"
	splitL1.Node.Hierarchy.SplitL1 = true
	splitL1.Node.Hierarchy.L1I = cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2, HitLatency: 1}
	faulted := machine.T805Grid(2, 2)
	faulted.Name = "t805-grid-faulted"
	faulted.Seed = 99
	faulted.Faults = &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 10_000, To: 60_000}}},
		Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.02}},
		Retrans: fault.Retrans{Timeout: 200, Backoff: 2, MaxRetries: 16},
	}
	contended := machine.PPC601SMP(4)
	contended.Name = "ppc601-smp-contended"
	directory := machine.PPC601SMP(4)
	directory.Name = "ppc601-directory"
	directory.Node.Hierarchy.Coherence = cache.Directory
	directory.Node.Hierarchy.DirLookupLatency = 2
	directory.Node.Hierarchy.DirMessageLatency = 3
	directory.Node.Hierarchy.Bus = bus.Config{Kind: bus.KindCrossbar, Width: 8, ArbitrationDelay: 1, Banks: 4, InterleaveBytes: 64}

	var out []observedCase
	add := func(cfg machine.Config, run func(*machine.Machine) (*machine.Result, error)) {
		out = append(out, observedCase{name: cfg.Name + "/shards=0", cfg: cfg, every: 250, run: run})
	}
	add(machine.T805Grid(2, 2), stream(ringTraces(4, 1, 4, 400)))
	add(faulted, stream(ringTraces(4, 1, 4, 400)))
	add(machine.PPC601Machine(), stream(ringTraces(1, 1, 1, 3000)))
	add(storeBuffered, stream(ringTraces(1, 1, 1, 3000)))
	add(splitL1, stream(ringTraces(1, 1, 1, 3000)))
	add(machine.PPC601SMP(4), stream(ringTraces(1, 4, 1, 1500)))
	add(contended, stream(sharingTraces(4, 1500)))
	add(directory, stream(ringTraces(1, 4, 1, 1500)))
	add(machine.HybridCluster(2, 2, 2), stream(ringTraces(4, 2, 3, 400)))
	add(machine.DSMCluster(2, 2), func(m *machine.Machine) (*machine.Result, error) {
		return m.RunProgram(workload.JacobiDSM(4, 64, 3))
	})

	// Every CPU of a DSM cluster stores to the same few shared pages: write
	// faults that demand a flush from the page's owner, invalidations of the
	// readers' copies, and requests for one page queued on its home's lock.
	dsmShared := machine.DSMCluster(2, 2)
	out = append(out, observedCase{
		name: "dsm-cluster/contended", cfg: dsmShared, every: 250,
		run: stream(pageSharingTraces(4, 3, 60)),
		check: func(t *testing.T, arts map[string]string) {
			for _, counter := range []string{"read faults", "write faults", "invalidations", "page transfers"} {
				if !regexp.MustCompile(`(?m)^\s*` + counter + `\s+[1-9]`).MatchString(arts["report"]) {
					t.Errorf("dsm %s: none in the report", counter)
				}
			}
			if !strings.Contains(arts["bottleneck JSON"], `"acquire dsm.page`) {
				t.Error("no request waited on a page lock")
			}
		},
	})
	// A store buffer that fills and drains under a sampler ticking every few
	// cycles, so ticks fall between a buffered store and its write-through.
	sampled := storeBuffered
	sampled.Name = "ppc601-store-buffer/sampled"
	out = append(out, observedCase{name: sampled.Name, cfg: sampled, every: 7, run: stream(storeBurstTraces(2000))})
	// The task-level traces a hybrid cluster's CPUs export (Fig. 2).
	out = append(out, observedCase{
		name: "hybrid-cluster/task-sinks", cfg: machine.HybridCluster(2, 2, 2), every: 250,
		run: stream(ringTraces(4, 2, 3, 400)), sinks: true,
	})
	return out
}

// pageSharingTraces gives every node rounds of loads and stores over the
// same pages of the DSM segment, with a little computation in between.
func pageSharingTraces(nodes, pages, rounds int) [][]ops.Op {
	base := dsm.DefaultConfig().Base
	page := dsm.DefaultConfig().PageSize
	traces := make([][]ops.Op, nodes)
	for n := range traces {
		r := pearl.NewRNG(uint64(9000 + n))
		for i := 0; i < rounds; i++ {
			addr := base + uint64(r.Intn(pages))*page + uint64(r.Intn(64))*8
			if r.Intn(3) == 0 {
				traces[n] = append(traces[n], ops.NewLoad(ops.MemWord, addr))
			} else {
				traces[n] = append(traces[n], ops.NewStore(ops.MemWord, addr))
			}
			traces[n] = append(traces[n], ops.NewArith(ops.Add, ops.TypeInt), ops.NewCompute(int64(r.Intn(300))))
		}
	}
	return traces
}

// storeBurstTraces is one stream of store bursts longer than a four-entry
// store buffer, with loads and arithmetic between the bursts.
func storeBurstTraces(n int) [][]ops.Op {
	r := pearl.NewRNG(4242)
	var out []ops.Op
	for len(out) < n {
		for i, burst := 0, 1+r.Intn(9); i < burst; i++ {
			out = append(out, ops.NewStore(ops.MemWord, 0x1000_0000+uint64(r.Intn(4<<10))&^3))
		}
		out = append(out, ops.NewLoad(ops.MemWord, 0x1000_0000+uint64(r.Intn(4<<10))&^3),
			ops.NewArith(ops.Mul, ops.TypeInt))
	}
	return [][]ops.Op{out}
}

// observe runs cfg once with the full instrumentation — the timeline, the
// bottleneck collector and a metrics sampler ticking every `every` cycles —
// and renders everything the workbench can write about the run.
func observe(t *testing.T, cfg machine.Config, every pearl.Time, run func(*machine.Machine) (*machine.Result, error)) map[string]string {
	t.Helper()
	env := observedEnv(cfg)
	m, err := machine.Build(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var history stats.History
	finish, err := m.StartSampler(every, func(t analysis.Tick) { history.Add(int64(t.At), t.Report()) })
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(m)
	if err != nil {
		t.Fatal(err)
	}
	noSwitches(t, env.Kernel)
	finish(res)
	out := map[string]string{
		"totals": fmt.Sprintf("%d cycles, %d events, %d instructions", res.Cycles, res.Events, res.Instructions),
	}
	render := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.String()
	}
	render("report", func(b *bytes.Buffer) error { return stats.RenderSet(b, res.Stats) })
	render("timeline", func(b *bytes.Buffer) error { return m.MergedTimeline().WriteJSON(b) })
	coalesced(t, out["timeline"])
	render("bottleneck text", func(b *bytes.Buffer) error { return res.Analysis.Render(b) })
	render("bottleneck JSON", func(b *bytes.Buffer) error { return res.Analysis.WriteJSON(b) })
	render(metricsCSV, func(b *bytes.Buffer) error { return history.WriteCSV(b) })
	return out
}

// metricsCSV is the artifact name of the sampler's CSV, which observe
// renders beside the others and TestDetailedDigests pins apart.
const metricsCSV = "metrics CSV"

// mixedTrace draws n instructions exercising every case of cpu.CPU.Begin:
// fetches, loads and stores over a private window that overflows the inner
// cache (hits and misses) and a window other CPUs of the node share
// (coherence traffic), accesses straddling a line, every arithmetic and
// control kind, and task-level compute operations mixed in.
func mixedTrace(r *pearl.RNG, n int, private uint64) []ops.Op {
	const shared = 0x2000_0000
	var out []ops.Op
	for i := 0; i < n; i++ {
		out = append(out, ops.NewIFetch(0x40_0000+private>>8+uint64(i%96)*4))
		addr := private + uint64(r.Intn(12<<10))&^3
		switch r.Intn(10) {
		case 0:
			addr = shared + uint64(r.Intn(1<<10))&^3
		case 1:
			addr |= 30 // a word at offset 30 straddles 16- and 32-byte lines
		}
		switch r.Intn(12) {
		case 0, 1, 2:
			out = append(out, ops.NewLoad(ops.MemWord, addr))
		case 3, 4:
			out = append(out, ops.NewStore(ops.MemWord, addr))
		case 5:
			out = append(out, ops.NewArith(ops.Add, ops.TypeInt))
		case 6:
			out = append(out, ops.NewArith(ops.Mul, ops.TypeDouble))
		case 7:
			out = append(out, ops.NewArith(ops.Div, ops.TypeLong))
		case 8:
			out = append(out, ops.NewBranch(0x40_0000))
		case 9:
			out = append(out, ops.NewCall(0x40_1000), ops.NewRet(0x40_0000))
		case 10:
			out = append(out, ops.NewLoadConst(ops.TypeFloat))
		case 11:
			out = append(out, ops.NewCompute(int64(r.Intn(40))))
		}
	}
	return out
}

// ringTraces builds one stream per CPU: rounds of mixed computation, with
// CPU 0 of every node passing a token around the ring of nodes in between
// (synchronously on even rounds, with asynchronous sends on odd ones).
func ringTraces(nodes, cpus, rounds, instrs int) [][]ops.Op {
	traces := make([][]ops.Op, nodes*cpus)
	for s := range traces {
		r := pearl.NewRNG(uint64(1000 + s))
		nd, cpu := s/cpus, s%cpus
		for round := 0; round < rounds; round++ {
			traces[s] = append(traces[s], mixedTrace(r, instrs, 0x1000_0000+uint64(s)<<20)...)
			if cpu != 0 || nodes == 1 {
				continue
			}
			next, prev := int32((nd+1)%nodes), int32((nd+nodes-1)%nodes)
			tag := uint32(round)
			send := ops.NewSend(512, next, tag)
			if round%2 == 1 {
				send = ops.NewASend(512, next, tag)
			}
			if nd == nodes-1 {
				traces[s] = append(traces[s], ops.NewRecv(prev, tag), send)
			} else {
				traces[s] = append(traces[s], send, ops.NewRecv(prev, tag))
			}
		}
	}
	return traces
}

func sources(traces [][]ops.Op) []trace.Source {
	srcs := make([]trace.Source, len(traces))
	for i, tr := range traces {
		srcs[i] = trace.FromOps(tr)
	}
	return srcs
}
