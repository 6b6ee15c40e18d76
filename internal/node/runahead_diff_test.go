package node_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"regexp"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/core"
	"mermaid/internal/fault"
	"mermaid/internal/machine"
	"mermaid/internal/node"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
)

// A private node's runner serves its straight line ahead of the kernel and
// rejoins it with one hold (pearl.Chain.Ahead, Kernel.Rejoin), which takes
// the place among the events of its instant that the line's last hold would
// have taken. Running ahead must change nothing but the kernel's dispatches:
// the tests below run every case twice, running ahead and per event, and
// compare the reports byte for byte but for the host's wall-clock lines —
// cycles, every statistic and the event count — and, observed, the timeline
// and the bottleneck JSON too. A sampler's ticks and a fault plan's
// transitions are daemon events, which bound the lines run ahead: sampled,
// the whole metrics CSV, every tick's row, is compared as well.

// runAheadReport runs the case with running ahead on or off and returns its
// report without the wall-clock lines; observed, with the timeline and the
// bottleneck collector attached, followed by the timeline JSON and the
// bottleneck JSON; sampled every so many cycles (0: not sampled), followed
// by a digest of every sample: each tick's report tree and the last, every
// name, unit and value that a metrics CSV row is made of.
func runAheadReport(t *testing.T, ahead, observed bool, every pearl.Time, cfg machine.Config, drive func(*machine.Machine) (*machine.Result, error)) string {
	t.Helper()
	defer node.SetRunAhead(ahead)()
	var opts []core.Option
	var pb *probe.Probe
	if observed {
		pb = probe.New(probe.Config{Timeline: true})
		opts = append(opts, core.WithProbe(pb), core.WithAnalysis())
	}
	wb, err := core.New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	var samples maphash.Hash
	samples.SetSeed(sampleSeed)
	finish := func(*machine.Result) {}
	if every > 0 {
		var row []byte
		var walk func(*stats.Set)
		walk = func(s *stats.Set) {
			row = append(row, s.Name...)
			for _, mt := range s.Metrics {
				row = append(append(row, mt.Name...), mt.Unit...)
				row = binary.LittleEndian.AppendUint64(row, math.Float64bits(mt.Value))
			}
			for _, sub := range s.Subsets {
				walk(sub)
			}
		}
		finish, err = m.StartSampler(every, func(t analysis.Tick) {
			row = binary.LittleEndian.AppendUint64(row[:0], uint64(t.At))
			walk(t.Report())
			samples.Write(row)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := drive(m)
	if err != nil {
		t.Fatal(err)
	}
	finish(res)
	var buf bytes.Buffer
	if err := wb.Report(&buf, res); err != nil {
		t.Fatal(err)
	}
	report := wallLines.ReplaceAllString(buf.String(), "")
	buf.Reset()
	if observed {
		if err := pb.Timeline().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := res.Analysis.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if every > 0 {
		fmt.Fprintf(&buf, "samples %x\n", samples.Sum64())
	}
	return report + buf.String()
}

// sampleSeed seeds the sample digests, alike for both paths.
var sampleSeed = maphash.MakeSeed()

// wallLines are the report lines that read the host clock.
var wallLines = regexp.MustCompile(`(?m)^(host wall time|sim speed|slowdown/proc):.*\n`)

// compareRunAhead runs the case both ways, observed or not and sampled
// every so many cycles or not, and fails on any byte that differs.
func compareRunAhead(t *testing.T, observed bool, every pearl.Time, cfg machine.Config, drive func(*machine.Machine) (*machine.Result, error)) {
	t.Helper()
	ahead, perEvent := runAheadReport(t, true, observed, every, cfg, drive), runAheadReport(t, false, observed, every, cfg, drive)
	if ahead == perEvent {
		return
	}
	a, p := strings.Split(ahead, "\n"), strings.Split(perEvent, "\n")
	i := 0
	for i < len(a) && i < len(p) && a[i] == p[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "(end)"
	}
	t.Fatalf("observed %v, sampled every %d: outputs differ from line %d\nrunning ahead: %s\nper event:     %s", observed, every, i+1, line(a), line(p))
}

// compareConditions compares the case plain and observed, then observed
// and sampled every 1,000 (not under the race detector or -short) and
// 10,000 cycles, then observed and sampled under a fault plan: a link
// window, a node window and noise.
func compareConditions(t *testing.T, cfg machine.Config, drive func(*machine.Machine) (*machine.Result, error)) {
	t.Helper()
	compareRunAhead(t, false, 0, cfg, drive)
	compareRunAhead(t, true, 0, cfg, drive)
	if !node.RaceEnabled && !testing.Short() {
		compareRunAhead(t, true, 1000, cfg, drive)
	}
	compareRunAhead(t, true, 10000, cfg, drive)
	if faulted, ok := withFaults(cfg, 2000, 3000); ok {
		compareRunAhead(t, true, 10000, faulted, drive)
	}
}

// withFaults returns cfg under a fault plan: the link between nodes 0 and 1
// down from `from` for `span` cycles, the last node down for `span` cycles
// from a third of the way in, and 1 % drops on every link. ok is false for a
// machine of one node, or one whose nodes 0 and 1 are not neighbours.
func withFaults(cfg machine.Config, from, span pearl.Time) (machine.Config, bool) {
	if cfg.Nodes < 2 {
		return cfg, false
	}
	cfg.Faults = &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: from, To: from + span}}},
		Nodes:   []fault.NodeFault{{Node: cfg.Nodes - 1, Window: fault.Window{From: from + span/3, To: from + span/3 + span}}},
		Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.01}},
		Retrans: fault.Retrans{Timeout: 200, Backoff: 2, MaxRetries: 32},
	}
	if _, err := machine.New(cfg); err != nil {
		return cfg, false
	}
	return cfg, true
}

// TestRunAheadExact: every preset with every application it runs, and the
// benchmark's detailed requests.
func TestRunAheadExact(t *testing.T) {
	for _, preset := range core.PresetNames() {
		for _, app := range core.AppNames() {
			spec := core.RunSpec{Preset: preset, App: app, Rounds: 4, Iters: 3, Bytes: 1024, Cells: 256, Dim: 16}
			cfg, drive, err := spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Mode != machine.Detailed {
				continue
			}
			t.Run(preset+"/"+app, func(t *testing.T) {
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := drive(m); err != nil {
					t.Skipf("the preset does not run the application: %v", err)
				}
				compareConditions(t, cfg, drive)
			})
		}
	}
	// The benchmark's detailed requests: its detailed-t805 request and the
	// sweep grid's stand-in, at the seeds of its first requests.
	requests := []struct {
		name string
		cfg  machine.Config
		desc stochastic.Desc
	}{
		{"detailed-t805", machine.T805Grid(4, 4), stochastic.Desc{
			Nodes: 16, Level: stochastic.InstructionLevel, Iterations: 2,
			Phases: []stochastic.Phase{{
				Instructions: 5000, CV: 0.1,
				Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024},
			}},
		}},
		{"grid-direct", machine.T805Grid(2, 2), stochastic.Desc{
			Nodes: 4, Level: stochastic.InstructionLevel, Iterations: 1,
			Phases: []stochastic.Phase{{
				Instructions: 5000,
				Comm:         stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 512},
			}},
		}},
	}
	for _, rq := range requests {
		for i := 0; i < 4; i++ {
			t.Run(fmt.Sprintf("%s/%d", rq.name, i), func(t *testing.T) {
				cfg, d := rq.cfg, rq.desc
				cfg.Seed = requestSeed(rq.name, i, "machine")
				d.Seed = requestSeed(rq.name, i, "desc")
				drive := func(m *machine.Machine) (*machine.Result, error) { return m.RunStochastic(d) }
				compareConditions(t, cfg, drive)
			})
		}
	}
}

// requestSeed is the seed the benchmark gives request i of a kind at its
// default run seed 1 for the given purpose.
func requestSeed(kind string, i int, purpose string) uint64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d/%s", 1, kind, i, purpose)))
	return binary.LittleEndian.Uint64(h[:8])
}

// TestRunAheadDifferential compares running ahead with the per-event path on
// seeded machines of private nodes and stochastic workloads drawn at random:
// T805-derived meshes and tori of two to nine nodes under every switching
// mode, routing delays of 0–15 cycles, send and receive overheads of 0–30,
// packets of 64 B–4 KiB, every communication pattern, synchronous and
// asynchronous, with and without jitter. One case in four is provoked:
// phases of 1–12 instructions, so that straight lines end in the cycles
// where messages arrive and where other lines end. One case in ten is
// also compared observed: timeline and bottleneck JSON as well. One in ten
// is compared sampled instead, every 50–1,000 cycles, and one in ten under
// a seeded fault plan.
func TestRunAheadDifferential(t *testing.T) {
	cases := 3000
	if node.RaceEnabled || testing.Short() {
		cases = 300
	}
	for i := 0; i < cases; i++ {
		cfg, d := differentialCase(uint64(i))
		t.Run(fmt.Sprintf("case%04d", i), func(t *testing.T) {
			drive := func(m *machine.Machine) (*machine.Result, error) { return m.RunStochastic(d) }
			compareRunAhead(t, false, 0, cfg, drive)
			r := pearl.NewRNG(0x5a3f + uint64(i))
			switch i % 10 {
			case 0:
				compareRunAhead(t, true, 0, cfg, drive)
			case 3:
				compareRunAhead(t, false, pearl.Time(50+r.Intn(951)), cfg, drive)
			case 6:
				faulted, ok := withFaults(cfg, pearl.Time(r.Intn(3000)), pearl.Time(1+r.Intn(2000)))
				if !ok {
					t.Fatal("a generated machine refuses the fault plan")
				}
				compareRunAhead(t, false, 0, faulted, drive)
			}
		})
	}
}

// differentialCase draws generated case i: a machine of private nodes and
// an instruction-level description that runs on it.
func differentialCase(i uint64) (machine.Config, stochastic.Desc) {
	r := pearl.NewRNG(0xd1ff + i)
	pick := func(n int) int { return r.Intn(n) }
	dims := [][2]int{{2, 1}, {2, 2}, {3, 2}, {4, 2}, {3, 3}}[pick(5)]
	cfg := machine.T805Grid(dims[0], dims[1])
	cfg.Seed = i
	if dims[1] > 1 && pick(2) == 0 {
		cfg.Network.Topology.Kind = topology.Torus2D
	}
	cfg.Network.Router.Switching = []router.Switching{router.StoreAndForward, router.VirtualCutThrough, router.Wormhole}[pick(3)]
	cfg.Network.Router.RoutingDelay = pearl.Time(pick(16))
	cfg.Network.Router.MaxPacket = 64 << pick(7) // 64 B – 4 KiB
	cfg.Network.SendOverhead = pearl.Time(pick(31))
	cfg.Network.RecvOverhead = pearl.Time(pick(31))
	cfg.Network.Link.CyclesPerByte = 1 + pick(12)
	cfg.Node.Hierarchy.Memory.ReadLatency = pearl.Time(1 + pick(8))

	provoked := pick(4) == 0
	patterns := []stochastic.PatternKind{stochastic.NearestNeighbor, stochastic.Exchange, stochastic.AllToAll, stochastic.Hotspot, stochastic.RandomPairs}
	d := stochastic.Desc{
		Nodes: cfg.Nodes, Level: stochastic.InstructionLevel, Seed: i, Iterations: 1 + pick(3),
	}
	for p := 1 + pick(3); p > 0; p-- {
		ph := stochastic.Phase{
			Instructions: int64(20 + pick(200)),
			CV:           float64(pick(5)) / 10,
			Comm: stochastic.Comm{
				Pattern: patterns[pick(len(patterns))],
				Bytes:   uint32(4 << pick(11)), // 4 B – 4 KiB
				Jitter:  pick(2) == 0,
				Async:   pick(2) == 0,
			},
		}
		if provoked {
			ph.Instructions = int64(1 + pick(12))
		}
		d.Phases = append(d.Phases, ph)
	}
	return cfg, d
}
