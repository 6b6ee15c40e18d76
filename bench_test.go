// Benchmarks regenerating the workbench design studies of DESIGN.md's index
// (E1, E4, E5, E7–E9, E11, E12) and the trace codec. The paper's slowdown
// figures (E2, E3), the farm, the parallel engine, routing and the trace
// generators are measured by `go run ./benchmark` instead. Beyond ns/op, the
// relevant numbers are reported as custom metrics:
//
//	targetcyc/s    simulated target cycles per host second
//	slowdown143    host cycles per target cycle per processor at the paper's
//	               143 MHz UltraSPARC
//	slowdown1GHz   the same taking this host's single-core throughput as
//	               1 GHz-equivalent
//
// Run with: go test -bench=. -benchmem
package mermaid

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// reportSim attaches the simulation-speed metrics of one run.
func reportSim(b *testing.B, totalCycles pearl.Time, procs int) {
	b.Helper()
	secs := b.Elapsed().Seconds()
	if secs <= 0 || totalCycles <= 0 {
		return
	}
	cycPerSec := float64(totalCycles) / secs
	b.ReportMetric(cycPerSec, "targetcyc/s")
	b.ReportMetric(143e6/cycPerSec/float64(procs), "slowdown143")
	b.ReportMetric(1e9/cycPerSec/float64(procs), "slowdown1GHz")
}

// E1 / Table 1: the cost of pushing every operation kind through the
// detailed simulator (PowerPC 601 node), hot path.
func BenchmarkTable1OpLatencies(b *testing.B) {
	table := []ops.Op{
		ops.NewIFetch(0x400000),
		ops.NewLoad(ops.MemWord, 0x1000),
		ops.NewStore(ops.MemFloat8, 0x2000),
		ops.NewLoadConst(ops.TypeInt),
		ops.NewArith(ops.Add, ops.TypeInt),
		ops.NewArith(ops.Sub, ops.TypeLong),
		ops.NewArith(ops.Mul, ops.TypeFloat),
		ops.NewArith(ops.Div, ops.TypeDouble),
		ops.NewBranch(0x400010),
		ops.NewCall(0x401000),
		ops.NewRet(0x400020),
	}
	const reps = 1000
	stream := make([]ops.Op, 0, reps*len(table))
	for range reps {
		stream = append(stream, table...)
	}
	var totalCycles pearl.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(machine.PPC601Machine())
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run([]trace.Source{trace.FromOps(stream)})
		if err != nil {
			b.Fatal(err)
		}
		totalCycles += res.Cycles
		b.ReportMetric(float64(res.Cycles)/float64(reps*len(table)), "cyc/op")
	}
	reportSim(b, totalCycles, 1)
}

// E4: host memory per simulated node as the machine scales (§6: no
// instruction interpretation, caches hold tags only, so memory is dominated
// by the trace-generating side).
func BenchmarkMemoryPerNode(b *testing.B) {
	for _, side := range []int{2, 4, 8} {
		side := side
		nodes := side * side
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			desc := stochastic.Desc{
				Nodes: nodes, Level: stochastic.TaskLevel, Seed: 23, Iterations: 2,
				Phases: []stochastic.Phase{{
					Duration: 1000,
					Comm:     stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 256},
				}},
			}
			b.ResetTimer()
			var perNode float64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				m, err := machine.New(machine.T805GridTaskLevel(side, side))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.RunStochastic(desc); err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				perNode = float64(after.HeapAlloc-before.HeapAlloc) / float64(nodes)
				runtime.KeepAlive(m)
			}
			b.ReportMetric(perNode/1024, "KiB/node")
		})
	}
}

// E5: the two abstraction levels on the same workload — the headline
// tradeoff of the paper (accuracy vs simulation speed, Fig. 2).
func BenchmarkAbstractionLevels(b *testing.B) {
	prog := func() *trace.Program { return workload.Jacobi1D(4, 256, 5) }
	b.Run("detailed", func(b *testing.B) {
		var totalCycles pearl.Time
		for i := 0; i < b.N; i++ {
			m, err := machine.New(machine.T805Grid(2, 2))
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.RunProgram(prog())
			if err != nil {
				b.Fatal(err)
			}
			totalCycles += res.Cycles
		}
		reportSim(b, totalCycles, 4)
	})
	b.Run("task-derived", func(b *testing.B) {
		// Derive the task trace once (Fig. 2's hybrid path), replay it.
		taskTraces, err := deriveTaskTraces()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var totalCycles pearl.Time
		for i := 0; i < b.N; i++ {
			m, err := machine.New(machine.T805GridTaskLevel(2, 2))
			if err != nil {
				b.Fatal(err)
			}
			srcs := make([]trace.Source, len(taskTraces))
			for j := range taskTraces {
				srcs[j] = trace.FromOps(taskTraces[j])
			}
			res, err := m.Run(srcs)
			if err != nil {
				b.Fatal(err)
			}
			totalCycles += res.Cycles
		}
		reportSim(b, totalCycles, 4)
	})
}

func deriveTaskTraces() ([][]ops.Op, error) {
	m, err := machine.New(machine.T805Grid(2, 2))
	if err != nil {
		return nil, err
	}
	var bufs [4]writerBuf
	for i := 0; i < 4; i++ {
		if err := m.SetTaskSink(i, &bufs[i]); err != nil {
			return nil, err
		}
	}
	if _, err := m.RunProgram(workload.Jacobi1D(4, 256, 5)); err != nil {
		return nil, err
	}
	if err := m.FlushTaskSinks(); err != nil {
		return nil, err
	}
	out := make([][]ops.Op, 4)
	for i := 0; i < 4; i++ {
		tr, err := ops.ReadAll(&bufs[i])
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

type writerBuf struct{ data []byte }

func (w *writerBuf) Write(p []byte) (int, error) { w.data = append(w.data, p...); return len(p), nil }
func (w *writerBuf) Read(p []byte) (int, error) {
	if len(w.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, w.data)
	w.data = w.data[n:]
	return n, nil
}

// E7: cache design sweep (the direct-execution-impossible study of §2).
func BenchmarkCacheSweep(b *testing.B) {
	desc := stochastic.Desc{
		Nodes: 1, Level: stochastic.InstructionLevel, Seed: 5, Iterations: 1,
		Phases: []stochastic.Phase{{
			Instructions: 30000,
			Mem:          stochastic.MemModel{Base: 0x1000_0000, WorkingSet: 16 << 10},
		}},
	}
	for _, size := range []int{2 << 10, 8 << 10, 32 << 10} {
		size := size
		b.Run(fmt.Sprintf("L1=%dK", size>>10), func(b *testing.B) {
			var hit float64
			var cycles pearl.Time
			for i := 0; i < b.N; i++ {
				cfg := machine.PPC601Machine()
				cfg.Node.Hierarchy.Private[0].Size = size
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.RunStochastic(desc)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
				hit, _ = res.Stats.Lookup("node0", "memory-hierarchy", "node0.cpu0.L1").Get("hit ratio")
			}
			b.ReportMetric(hit, "hitratio")
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// E8: topology x switching sweep at the task level.
func BenchmarkTopologySweep(b *testing.B) {
	const nodes = 16
	desc := stochastic.Desc{
		Nodes: nodes, Level: stochastic.TaskLevel, Seed: 21, Iterations: 8,
		Phases: []stochastic.Phase{{
			Duration: 200,
			Comm:     stochastic.Comm{Pattern: stochastic.RandomPairs, Bytes: 2048},
		}},
	}
	topos := map[string]topology.Config{
		"ring":      {Kind: topology.Ring, Nodes: nodes},
		"mesh":      {Kind: topology.Mesh2D, DimX: 4, DimY: 4},
		"torus":     {Kind: topology.Torus2D, DimX: 4, DimY: 4},
		"hypercube": {Kind: topology.Hypercube, Nodes: nodes},
	}
	for _, tn := range []string{"ring", "mesh", "torus", "hypercube"} {
		for _, sw := range []router.Switching{router.StoreAndForward, router.VirtualCutThrough, router.Wormhole} {
			tn, sw := tn, sw
			b.Run(fmt.Sprintf("%s/%s", tn, sw), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					m, err := machine.New(machine.GenericTaskMachine(topos[tn], nodes, sw))
					if err != nil {
						b.Fatal(err)
					}
					res, err := m.RunStochastic(desc)
					if err != nil {
						b.Fatal(err)
					}
					lat, _ = res.Stats.Prefixed("network ").Get("mean msg latency")
				}
				b.ReportMetric(lat, "msglatency")
			})
		}
	}
}

// E9: shared-memory scaling and coherence scheme comparison.
func BenchmarkCoherence(b *testing.B) {
	for _, cpus := range []int{1, 2, 4, 8} {
		cpus := cpus
		b.Run(fmt.Sprintf("snoopy/cpus=%d", cpus), func(b *testing.B) {
			benchCoherence(b, cpus, cache.Snoopy)
		})
	}
	b.Run("directory/cpus=8", func(b *testing.B) {
		benchCoherence(b, 8, cache.Directory)
	})
}

func benchCoherence(b *testing.B, cpus int, coh cache.Coherence) {
	b.Helper()
	var cycles pearl.Time
	for i := 0; i < b.N; i++ {
		cfg := machine.PPC601SMP(cpus)
		if cpus == 1 {
			cfg.Node.Hierarchy.Coherence = cache.NoCoherence
		} else {
			cfg.Node.Hierarchy.Coherence = coh
			cfg.Node.Hierarchy.DirLookupLatency = 3
			cfg.Node.Hierarchy.DirMessageLatency = 4
		}
		m, err := machine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.RunProgram(workload.SharedCounter(cpus, 100))
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkTraceCodec measures the binary trace format (write + read).
func BenchmarkTraceCodec(b *testing.B) {
	traces, err := stochastic.Generate(stochastic.Desc{
		Nodes: 1, Level: stochastic.InstructionLevel, Seed: 1, Iterations: 1,
		Phases: []stochastic.Phase{{Instructions: 10000}},
	})
	if err != nil {
		b.Fatal(err)
	}
	tr := traces[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writerBuf
		if err := ops.WriteAll(&buf, tr); err != nil {
			b.Fatal(err)
		}
		back, err := ops.ReadAll(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(back) != len(tr) {
			b.Fatal("codec lost operations")
		}
	}
	b.SetBytes(int64(len(tr)))
}

// E11: node interconnect ablation (bus vs crossbar).
func BenchmarkInterconnect(b *testing.B) {
	for _, kind := range []bus.Kind{bus.KindBus, bus.KindCrossbar} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			desc := stochastic.Desc{
				Nodes: 1, Level: stochastic.InstructionLevel, Seed: 13, Iterations: 1,
				Phases: []stochastic.Phase{{
					Instructions: 5000,
					Mem:          stochastic.MemModel{Base: 0x1000_0000, WorkingSet: 256 << 10, Stride: 64, Access: ops.MemFloat8},
					Mix:          stochastic.Mix{Load: 0.5, Store: 0.2, IntArith: 0.3},
				}},
			}
			var cycles pearl.Time
			for i := 0; i < b.N; i++ {
				cfg := machine.PPC601SMP(4)
				cfg.Node.Hierarchy.Coherence = cache.Directory
				cfg.Node.Hierarchy.DirLookupLatency = 3
				cfg.Node.Hierarchy.DirMessageLatency = 4
				cfg.Node.Hierarchy.Bus.Kind = kind
				cfg.Node.Hierarchy.Bus.Banks = 8
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				d := desc
				d.Nodes = 4
				res, err := m.RunStochastic(d)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// E12: the calibration microbenchmark (lat-mem-rd staircase).
func BenchmarkCalibrationProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := machine.New(machine.PPC601Machine())
		if err != nil {
			b.Fatal(err)
		}
		var tr []ops.Op
		for a := uint64(0); a < 64<<10; a += 64 {
			tr = append(tr, ops.NewLoad(ops.MemWord, 0x1000_0000+a))
		}
		if _, err := m.Run([]trace.Source{trace.FromOps(tr)}); err != nil {
			b.Fatal(err)
		}
	}
}
