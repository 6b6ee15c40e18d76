// Package experiments contains the reproduction harnesses for every
// quantitative claim and structural artefact of the paper (Table 1 and the
// §6 evaluation), plus the architecture design studies the workbench exists
// to support. Each experiment returns a named ResultSet — a rendered table,
// a map of key metrics that tests and EXPERIMENTS.md assert against, and any
// JSON artifacts. The same functions back the `mermaid -experiment` CLI, the
// experiment pipeline, and the benchmarks in bench_test.go.
package experiments

import (
	"bytes"
	"fmt"
	"runtime"

	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/stochastic"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// table1 (E1) executes every operation of Table 1 through the full detailed
// simulator — the computational operations on a PowerPC 601 node, the
// communication operations across a two-node T805 machine — and reports the
// simulated cost of each. Every operation is an independent cold machine, so
// the measurements farm out across host workers.
func table1(s Spec) (*ResultSet, error) {
	// Computational operations, one at a time on a cold PPC601 node.
	compOps := []ops.Op{
		ops.NewLoad(ops.MemWord, 0x1000),
		ops.NewStore(ops.MemFloat8, 0x2000),
		ops.NewLoadConst(ops.TypeInt),
		ops.NewArith(ops.Add, ops.TypeInt),
		ops.NewArith(ops.Sub, ops.TypeLong),
		ops.NewArith(ops.Mul, ops.TypeFloat),
		ops.NewArith(ops.Div, ops.TypeDouble),
		ops.NewIFetch(0x400000),
		ops.NewBranch(0x400010),
		ops.NewCall(0x401000),
		ops.NewRet(0x400020),
	}
	// Communication operations on a 2x1 T805 machine.
	commCases := []struct {
		name   string
		node0  []ops.Op
		node1  []ops.Op
		sample ops.Kind
	}{
		{"send 1024 -> 1", []ops.Op{ops.NewSend(1024, 1, 0)}, []ops.Op{ops.NewRecv(0, 0)}, ops.Send},
		{"recv <- 1", []ops.Op{ops.NewRecv(1, 0)}, []ops.Op{ops.NewSend(1024, 0, 0)}, ops.Recv},
		{"asend 64 -> 1", []ops.Op{ops.NewASend(64, 1, 0)}, []ops.Op{ops.NewRecv(0, 0)}, ops.ASend},
		{"arecv + waitrecv", []ops.Op{func() ops.Op { o := ops.NewARecv(1, 0); o.Addr = 1; return o }(), ops.NewWaitRecv(1)},
			[]ops.Op{ops.NewASend(64, 0, 0)}, ops.ARecv},
		{"compute 5000", []ops.Op{ops.NewCompute(5000)}, nil, ops.Compute},
	}
	var (
		pts   []point
		kinds []ops.Kind
	)
	for _, o := range compOps {
		pts = append(pts, point{name: o.String(), cfg: machine.PPC601Machine(), drive: runOps([]ops.Op{o})})
		kinds = append(kinds, o.Kind)
	}
	for _, c := range commCases {
		pts = append(pts, point{name: c.name, cfg: machine.T805Grid(2, 1), drive: runOps(c.node0, c.node1)})
		kinds = append(kinds, c.sample)
	}
	res, err := runPoints(s, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("operation", "class", "cycles")
	for i, r := range res {
		class := "computational"
		if i >= len(compOps) {
			class = "communication"
		}
		out.row(pts[i].name, class, int64(r.Cycles))
		out.key(kinds[i].String(), float64(r.Cycles))
	}
	return out.done()
}

// slowdownDesc builds the "mix of application loads" driving the slowdown
// measurements: a compute/communicate cycle at the given level.
func slowdownDesc(nodes int, level stochastic.Level, instrs, dur int64, iters int) stochastic.Desc {
	return stochastic.Desc{
		Name: "slowdown-mix", Nodes: nodes, Level: level, Seed: 11, Iterations: iters,
		Phases: []stochastic.Phase{{
			Name:         "compute+exchange",
			Instructions: instrs,
			Duration:     dur,
			CV:           0.1,
			Comm:         stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024},
		}},
	}
}

// detailedSlowdown (E2) measures the simulation speed of the detailed
// (abstract-instruction) level on the paper's two calibration machines: a
// T805 multicomputer and a PowerPC 601 single node with two cache levels.
// The paper reports a slowdown of about 750–4,000 per processor on a
// 143 MHz UltraSPARC host (30k–200k target cycles/s).
func detailedSlowdown(Spec) (*ResultSet, error) {
	singleNode := slowdownDesc(1, stochastic.InstructionLevel, 200000, 0, 3)
	singleNode.Phases[0].Comm = stochastic.Comm{}
	return slowdownTable([]point{
		{name: "t805-4x4", cfg: machine.T805Grid(4, 4), drive: runDesc(slowdownDesc(16, stochastic.InstructionLevel, 20000, 0, 3))},
		{name: "ppc601", cfg: machine.PPC601Machine(), drive: runDesc(singleNode)},
	})
}

// taskLevelSlowdown (E3) measures the fast-prototyping level: computation is
// simulated as whole tasks, so an entire multicomputer simulates with only a
// minor slowdown (the paper: 0.5–4 per processor, dominated by the amount of
// communication in the load).
func taskLevelSlowdown(Spec) (*ResultSet, error) {
	return slowdownTable([]point{
		{name: "t805-4x4-compute-heavy", cfg: machine.T805GridTaskLevel(4, 4),
			drive: runDesc(slowdownDesc(16, stochastic.TaskLevel, 0, 500000, 20))},
		{name: "t805-4x4-comm-heavy", cfg: machine.T805GridTaskLevel(4, 4),
			drive: runDesc(slowdownDesc(16, stochastic.TaskLevel, 0, 5000, 200))},
	})
}

// slowdownTable runs the points one at a time, since host wall time is what
// they measure, and tabulates each run's simulation speed under the point's
// name.
func slowdownTable(pts []point) (*ResultSet, error) {
	res, err := runPoints(Spec{}, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("machine", "procs", "sim cycles", "wall ms",
		"cycles/s", "slowdown/proc @143MHz", "@1GHz")
	for i, r := range res {
		out.row(pts[i].name, r.Processors, int64(r.Cycles),
			float64(r.Wall.Microseconds())/1000,
			r.CyclesPerSecond(),
			r.SlowdownPerProcessor(143e6),
			r.SlowdownPerProcessor(1e9))
		out.key(pts[i].name+"/cycles_per_sec", r.CyclesPerSecond())
		out.key(pts[i].name+"/slowdown143", r.SlowdownPerProcessor(143e6))
	}
	return out.done()
}

// memoryScaling (E4) measures host memory per simulated node as the machine
// grows (sweep parameter "nodes", a comma-separated list of square node
// counts). Because the simulator interprets no machine instructions and
// caches hold only tags, the footprint stays small and is dominated by the
// trace-generating side (§6). The probes always run one at a time: heap
// accounting via runtime.MemStats is process-global, so concurrent probes
// would attribute each other's allocations.
func memoryScaling(s Spec) (*ResultSet, error) {
	nodeCounts, err := s.intsParam("nodes", defMemoryNodes)
	if err != nil {
		return nil, err
	}
	out := newOutput("nodes", "heap KiB", "KiB/node")
	for _, n := range nodeCounts {
		heap, err := heapForTaskMachine(n)
		if err != nil {
			return nil, err
		}
		perNode := float64(heap) / 1024 / float64(n)
		out.row(n, float64(heap)/1024, perNode)
		out.key(fmt.Sprintf("kib_per_node_%d", n), perNode)
	}
	// Tags-only evidence: host cost of a cache is independent of simulated
	// capacity. A cache with 32-byte lines keeps 32 bytes of tag/state
	// metadata per line.
	small, big := 32<<10/32*32, 4<<20/32*32
	ratio := float64(big) / float64(small)
	out.key("cache_host_ratio", ratio)
	out.row("cache 32KiB vs 4MiB host bytes", fmt.Sprintf("%d vs %d", small, big), ratio)
	return out.done()
}

// heapForTaskMachine returns the heap a task-level machine of n nodes holds
// after a short run, the machine still alive.
func heapForTaskMachine(n int) (uint64, error) {
	side := 1
	for side*side < n {
		side++
	}
	if side*side != n {
		return 0, fmt.Errorf("memory scaling: %d is not a square", n)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := point{name: fmt.Sprintf("nodes=%d", n), cfg: machine.T805GridTaskLevel(side, side),
		drive: func(m *machine.Machine) (*machine.Result, error) {
			// The report is dropped before the heap is read: the probe
			// measures the machine.
			_, err := m.RunStochastic(slowdownDesc(n, stochastic.TaskLevel, 0, 1000, 2))
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(m)
			return nil, err
		}}.run()
	if err != nil || after.HeapAlloc < before.HeapAlloc {
		return 0, err
	}
	return after.HeapAlloc - before.HeapAlloc, nil
}

// hybridAgreement (E5) runs the same annotated program once through the
// detailed model (deriving a task-level trace on the fly, Fig. 2) and then
// replays the derived trace through the task-level model. The two abstraction
// levels must agree on execution time, since the communication model is
// shared and the task durations were measured by the detailed model.
func hybridAgreement(Spec) (*ResultSet, error) {
	const nodes = 4
	sinks := make([]bytes.Buffer, nodes)
	resD, err := point{name: "detailed", cfg: machine.T805Grid(2, 2),
		drive: func(m *machine.Machine) (*machine.Result, error) {
			for i := range sinks {
				if err := m.SetTaskSink(i, &sinks[i]); err != nil {
					return nil, err
				}
			}
			res, err := m.RunProgram(workload.Jacobi1D(nodes, 128, 5))
			if err != nil {
				return nil, err
			}
			return res, m.FlushTaskSinks()
		}}.run()
	if err != nil {
		return nil, err
	}
	srcs := make([]trace.Source, nodes)
	for i := range srcs {
		srcs[i] = trace.FromReader(&sinks[i])
	}
	resT, err := point{name: "task-level", cfg: machine.T805GridTaskLevel(2, 2),
		drive: func(m *machine.Machine) (*machine.Result, error) { return m.Run(srcs) }}.run()
	if err != nil {
		return nil, err
	}

	out := newOutput("abstraction level", "sim cycles", "wall ms", "events")
	out.row("detailed (instruction)", int64(resD.Cycles), float64(resD.Wall.Microseconds())/1000, int64(resD.Events))
	out.row("task-level (derived trace)", int64(resT.Cycles), float64(resT.Wall.Microseconds())/1000, int64(resT.Events))
	out.key("detailed_cycles", float64(resD.Cycles))
	out.key("task_cycles", float64(resT.Cycles))
	out.key("ratio", float64(resT.Cycles)/float64(resD.Cycles))
	out.key("detailed_events", float64(resD.Events))
	out.key("task_events", float64(resT.Events))
	return out.done()
}
