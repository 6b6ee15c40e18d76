package node_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"mermaid/internal/core"
	"mermaid/internal/machine"
	"mermaid/internal/node"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
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
// and the bottleneck JSON too.

// runAheadReport runs the case with running ahead on or off and returns its
// report without the wall-clock lines; observed, with the timeline and the
// bottleneck collector attached, followed by the timeline JSON and the
// bottleneck JSON.
func runAheadReport(t *testing.T, ahead, observed bool, cfg machine.Config, drive func(*machine.Machine) (*machine.Result, error)) string {
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
	res, err := drive(m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wb.Report(&buf, res); err != nil {
		t.Fatal(err)
	}
	report := wallLines.ReplaceAllString(buf.String(), "")
	if observed {
		buf.Reset()
		if err := pb.Timeline().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := res.Analysis.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		report += buf.String()
	}
	return report
}

// wallLines are the report lines that read the host clock.
var wallLines = regexp.MustCompile(`(?m)^(host wall time|sim speed|slowdown/proc):.*\n`)

// compareRunAhead runs the case both ways, observed or not, and fails on
// any byte that differs.
func compareRunAhead(t *testing.T, observed bool, cfg machine.Config, drive func(*machine.Machine) (*machine.Result, error)) {
	t.Helper()
	ahead, perEvent := runAheadReport(t, true, observed, cfg, drive), runAheadReport(t, false, observed, cfg, drive)
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
	t.Fatalf("observed %v: outputs differ from line %d\nrunning ahead: %s\nper event:     %s", observed, i+1, line(a), line(p))
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
				compareRunAhead(t, false, cfg, drive)
				compareRunAhead(t, true, cfg, drive)
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
				compareRunAhead(t, false, cfg, drive)
				compareRunAhead(t, true, cfg, drive)
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
// also compared observed: timeline and bottleneck JSON as well.
func TestRunAheadDifferential(t *testing.T) {
	cases := 3000
	if node.RaceEnabled || testing.Short() {
		cases = 300
	}
	for i := 0; i < cases; i++ {
		cfg, d := differentialCase(uint64(i))
		t.Run(fmt.Sprintf("case%04d", i), func(t *testing.T) {
			drive := func(m *machine.Machine) (*machine.Result, error) { return m.RunStochastic(d) }
			compareRunAhead(t, false, cfg, drive)
			if i%10 == 0 {
				compareRunAhead(t, true, cfg, drive)
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
