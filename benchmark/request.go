package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"mermaid/internal/core"
	"mermaid/internal/machine"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
)

// deriveSeed maps (run seed, workload, operation index, purpose) to a 64-bit
// seed, so no two requests of a run are byte-identical and every input is a
// function of -seed alone.
func deriveSeed(seed uint64, workload string, i int, purpose string) uint64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d/%s", seed, workload, i, purpose)))
	return binary.LittleEndian.Uint64(h[:8])
}

// requestKind is one family of requests: a machine preset and a stochastic
// description whose seeds vary per request.
type requestKind struct {
	config func() (machine.Config, error)
	desc   stochastic.Desc
	// timeline and analysis run the request the way the server runs its
	// jobs (virtual-time timeline plus bottleneck analyzer on); the four
	// request workloads run with both off.
	timeline, analysis bool
}

// The sizes are for a 2-core 2.1 GHz host: each request workload gets about
// twenty or more requests into a ten-second run, so a median is steady.
var requestKinds = map[string]requestKind{
	"detailed-t805": {
		config: func() (machine.Config, error) { return machine.T805Grid(4, 4), nil },
		desc: stochastic.Desc{
			Nodes: 16, Level: stochastic.InstructionLevel, Iterations: 2,
			Phases: []stochastic.Phase{{
				Instructions: 5000, CV: 0.1,
				Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024},
			}},
		},
	},
	"task-mesh64": {
		config: func() (machine.Config, error) { return machine.T805GridTaskLevel(8, 8), nil },
		desc:   taskExchange(64, 8192, 40),
	},
	"task-torus16k": {
		config: func() (machine.Config, error) { return machine.TaskMachineFromSpec("torus3d:32x32x16") },
		desc:   taskExchange(32*32*16, 4096, 2),
	},
	"task-sharded": {
		config: func() (machine.Config, error) {
			cfg := machine.GenericTaskMachine(
				topology.Config{Kind: topology.Torus2D, DimX: 32, DimY: 32}, 1024, router.VirtualCutThrough)
			cfg.Shards = 2 // fixed, not nproc: the simulated outcome must not depend on the host
			return cfg, nil
		},
		desc: taskExchange(1024, 4096, 4),
	},
	// The simulation behind one service job, run in process with the
	// instrumentation the server always attaches.
	"service-direct": {
		config:   func() (machine.Config, error) { return machine.TaskMachineFromSpec(serviceTopology) },
		desc:     serviceDesc(),
		timeline: true, analysis: true,
	},
	// A stand-in for one unit of the sweep grid: a small detailed
	// multicomputer run, the kind the grid's farm workers execute side by
	// side (the grid itself only exposes whole experiments).
	"grid-direct": {
		config: func() (machine.Config, error) { return machine.T805Grid(2, 2), nil },
		desc: stochastic.Desc{
			Nodes: 4, Level: stochastic.InstructionLevel, Iterations: 1,
			Phases: []stochastic.Phase{{
				Instructions: 5000,
				Comm:         stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 512},
			}},
		},
	},
}

func taskExchange(nodes int, bytes uint32, iterations int) stochastic.Desc {
	return stochastic.Desc{
		Nodes: nodes, Level: stochastic.TaskLevel, Iterations: iterations,
		Phases: []stochastic.Phase{{
			Duration: 2000, CV: 0.1,
			Comm: stochastic.Comm{Pattern: stochastic.Exchange, Bytes: bytes},
		}},
	}
}

// requestInput is everything the program receives for one request: the
// machine configuration as JSON bytes and the workload description.
type requestInput struct {
	config             []byte
	desc               stochastic.Desc
	timeline, analysis bool
}

// makeRequest generates request i of a kind from the run seed.
func makeRequest(kind string, seed uint64, i int) (requestInput, error) {
	rk, ok := requestKinds[kind]
	if !ok {
		return requestInput{}, fmt.Errorf("unknown request kind %q", kind)
	}
	cfg, err := rk.config()
	if err != nil {
		return requestInput{}, err
	}
	cfg.Seed = deriveSeed(seed, kind, i, "machine")
	if cfg.Version == 0 {
		cfg.Version = machine.ConfigVersion
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		return requestInput{}, err
	}
	desc := rk.desc
	desc.Phases = append([]stochastic.Phase(nil), rk.desc.Phases...)
	desc.Seed = deriveSeed(seed, kind, i, "desc")
	return requestInput{config: data, desc: desc, timeline: rk.timeline, analysis: rk.analysis}, nil
}

// outcome holds the simulated quantities of one request. For a fixed seed
// they repeat exactly and must not move under a performance change.
type outcome struct {
	Cycles       int64   `json:"cycles"`
	Events       uint64  `json:"events"`
	Instructions uint64  `json:"instructions"`
	Processors   int     `json:"processors"`
	Messages     uint64  `json:"messages"`
	Packets      uint64  `json:"packets"`
	Bytes        uint64  `json:"bytes"`
	MeanHops     float64 `json:"mean_hops"`
	Sends        uint64  `json:"sends"`
	Recvs        uint64  `json:"recvs"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
}

// extractOutcome reads the simulated statistics out of the result's metric
// tree, which every engine fills with the same names.
func extractOutcome(res *machine.Result) outcome {
	o := outcome{
		Cycles:       int64(res.Cycles),
		Events:       res.Events,
		Instructions: res.Instructions,
		Processors:   res.Processors,
	}
	var walk func(s *stats.Set)
	walk = func(s *stats.Set) {
		network := strings.HasPrefix(s.Name, "network ")
		for _, m := range s.Metrics {
			switch {
			case m.Name == "sends":
				o.Sends += uint64(m.Value)
			case m.Name == "recvs":
				o.Recvs += uint64(m.Value)
			case m.Name == "hits":
				o.CacheHits += uint64(m.Value)
			case m.Name == "misses":
				o.CacheMisses += uint64(m.Value)
			case network && m.Name == "messages":
				o.Messages = uint64(m.Value)
			case network && m.Name == "packets":
				o.Packets = uint64(m.Value)
			case network && m.Name == "payload bytes":
				o.Bytes = uint64(m.Value)
			case network && m.Name == "mean hops":
				o.MeanHops = m.Value
			}
		}
		for _, sub := range s.Subsets {
			if sub.Name == "registry" { // flat duplicate of the tree above
				continue
			}
			walk(sub)
		}
	}
	if res.Stats != nil {
		walk(res.Stats)
	}
	return o
}

// check asserts the conservation invariants every request must satisfy.
func (o outcome) check() error {
	switch {
	case o.Cycles <= 0:
		return fmt.Errorf("simulated %d cycles", o.Cycles)
	case o.Events == 0:
		return errors.New("no kernel events")
	case o.Sends != o.Recvs:
		return fmt.Errorf("%d sends but %d receives", o.Sends, o.Recvs)
	case o.Processors > 1 && o.Messages != o.Sends:
		return fmt.Errorf("%d messages on the network but %d sends", o.Messages, o.Sends)
	}
	return nil
}

// digestInto folds the outcome into a running hash: numbers only, never
// report text, so a change of wording cannot hide or fake a change of
// simulated behaviour.
func (o outcome) digestInto(buf *bytes.Buffer) {
	for _, v := range []uint64{
		uint64(o.Cycles), o.Events, o.Instructions, uint64(o.Processors),
		o.Messages, o.Packets, o.Bytes, math.Float64bits(o.MeanHops),
		o.Sends, o.Recvs, o.CacheHits, o.CacheMisses,
	} {
		binary.Write(buf, binary.LittleEndian, v) //nolint:errcheck // bytes.Buffer
	}
}

// The five phases of a request, each a call into one layer.
const (
	phaseParse    = "machine.parse"
	phaseBuild    = "machine.build"
	phaseGenerate = "stochastic.generate"
	phaseRun      = "machine.run"
	phaseReport   = "core.report"
)

var requestPhases = []string{phaseParse, phaseBuild, phaseGenerate, phaseRun, phaseReport}

// requestResult is what one request produced.
type requestResult struct {
	out      outcome
	wall     time.Duration
	report   []byte
	timeline *probe.Timeline // non-nil for timeline requests
	allocMB  float64         // heap bytes allocated by the request (traced only)
	allocs   float64         // heap objects allocated by the request (traced only)
}

// runRequest is what a user pays for one answer: configuration bytes and a
// description in, report bytes out. With a tracer, each phase is a span
// under one request span and the allocation counters are read around the
// request (the load generator is single-threaded here, so they are
// attributable).
func runRequest(in requestInput, tr *tracer, req int) (requestResult, error) {
	var rr requestResult
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	root := tr.begin("request", -1, req, 0)

	sp := tr.begin(phaseParse, root, req, 0)
	cfg, err := machine.ParseConfig(in.config)
	tr.end(sp)
	if err != nil {
		return rr, err
	}

	sp = tr.begin(phaseBuild, root, req, 0)
	var opts []core.Option
	if in.timeline {
		opts = append(opts, core.WithProbe(probe.New(probe.Config{Timeline: true})))
	}
	if in.analysis {
		opts = append(opts, core.WithAnalysis())
	}
	wb, err := core.New(cfg, opts...)
	if err != nil {
		return rr, err
	}
	m, err := wb.Build()
	tr.end(sp)
	if err != nil {
		return rr, err
	}

	sp = tr.begin(phaseGenerate, root, req, 0)
	srcs, err := stochastic.Sources(in.desc)
	tr.end(sp)
	if err != nil {
		return rr, err
	}

	sp = tr.begin(phaseRun, root, req, 0)
	res, err := m.Run(srcs)
	tr.end(sp)
	if err != nil {
		return rr, err // includes *machine.DeadlockError
	}

	sp = tr.begin(phaseReport, root, req, 0)
	var buf bytes.Buffer
	err = wb.Report(&buf, res)
	tr.end(sp)
	if err != nil {
		return rr, err
	}
	tr.end(root)
	rr.wall = time.Since(start)

	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rr.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		rr.allocs = float64(after.Mallocs - before.Mallocs)
	}
	rr.report = buf.Bytes()
	rr.out = extractOutcome(res)
	if in.timeline {
		rr.timeline = m.MergedTimeline()
	}
	return rr, rr.out.check()
}

// checkInstructions is the deep conservation check, run once per workload
// outside the timed window: the instructions the CPUs retired equal the
// computational operations the generator produced.
func checkInstructions(in requestInput, o outcome) error {
	if in.desc.Level != stochastic.InstructionLevel {
		if o.Instructions != 0 {
			return fmt.Errorf("task-level run retired %d instructions", o.Instructions)
		}
		return nil
	}
	traces, err := stochastic.Generate(in.desc)
	if err != nil {
		return err
	}
	var want uint64
	for _, t := range traces {
		for _, op := range t {
			if op.Kind.IsComputational() {
				want++
			}
		}
	}
	if o.Instructions != want {
		return fmt.Errorf("cpus retired %d instructions, generator produced %d", o.Instructions, want)
	}
	return nil
}
