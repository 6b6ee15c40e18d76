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

	"mermaid/internal/farm"
	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// measurement is one farmed run's contribution to an experiment table: a
// pre-formatted row plus the key/value pairs it asserts. Collecting rows
// from the farm in submission order keeps tables byte-identical to a
// sequential run.
type measurement struct {
	row  []any
	keys Keys
}

// collect runs the jobs on a pool and folds the measurements into the table
// and key map, in submission order.
func collect(s Spec, jobs []farm.Job, tb *stats.Table, keys Keys) error {
	rep := s.pool().Run(jobs)
	if err := rep.Err(); err != nil {
		return err
	}
	for _, v := range rep.Values() {
		m := v.(measurement)
		tb.Row(m.row...)
		for k, val := range m.keys {
			keys[k] = val
		}
	}
	return nil
}

// table1 (E1) executes every operation of Table 1 through the full detailed
// simulator — the computational operations on a PowerPC 601 node, the
// communication operations across a two-node T805 machine — and reports the
// simulated cost of each. Every operation is an independent cold machine, so
// the measurements farm out across host workers.
func table1(s Spec) (*ResultSet, error) {
	tb := stats.NewTable("operation", "class", "cycles")
	keys := Keys{}

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
	var jobs []farm.Job
	for _, o := range compOps {
		o := o
		jobs = append(jobs, farm.Job{Name: o.String(), Run: func(rc *farm.RunContext) (any, error) {
			m, err := machine.New(machine.PPC601Machine())
			if err != nil {
				return nil, err
			}
			res, err := m.Run([]trace.Source{trace.FromOps([]ops.Op{o})})
			if err != nil {
				return nil, fmt.Errorf("op %s: %w", o, err)
			}
			rc.ObserveSim(res.Cycles, res.Events)
			return measurement{
				row:  []any{o.String(), "computational", int64(res.Cycles)},
				keys: Keys{o.Kind.String(): float64(res.Cycles)},
			}, nil
		}})
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
	for _, c := range commCases {
		c := c
		jobs = append(jobs, farm.Job{Name: c.name, Run: func(rc *farm.RunContext) (any, error) {
			m, err := machine.New(machine.T805Grid(2, 1))
			if err != nil {
				return nil, err
			}
			res, err := m.Run([]trace.Source{trace.FromOps(c.node0), trace.FromOps(c.node1)})
			if err != nil {
				return nil, fmt.Errorf("case %s: %w", c.name, err)
			}
			rc.ObserveSim(res.Cycles, res.Events)
			return measurement{
				row:  []any{c.name, "communication", int64(res.Cycles)},
				keys: Keys{c.sample.String(): float64(res.Cycles)},
			}, nil
		}})
	}
	if err := collect(s, jobs, tb, keys); err != nil {
		return nil, err
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
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
	tb := stats.NewTable("machine", "procs", "sim cycles", "wall ms",
		"cycles/s", "slowdown/proc @143MHz", "@1GHz")
	keys := Keys{}

	run := func(label string, cfg machine.Config, d stochastic.Desc) error {
		m, err := machine.New(cfg)
		if err != nil {
			return err
		}
		res, err := m.RunStochastic(d)
		if err != nil {
			return err
		}
		tb.Row(label, res.Processors, int64(res.Cycles),
			float64(res.Wall.Microseconds())/1000,
			res.CyclesPerSecond(),
			res.SlowdownPerProcessor(143e6),
			res.SlowdownPerProcessor(1e9))
		keys[label+"/cycles_per_sec"] = res.CyclesPerSecond()
		keys[label+"/slowdown143"] = res.SlowdownPerProcessor(143e6)
		return nil
	}

	if err := run("t805-4x4", machine.T805Grid(4, 4),
		slowdownDesc(16, stochastic.InstructionLevel, 20000, 0, 3)); err != nil {
		return nil, err
	}
	singleNode := slowdownDesc(1, stochastic.InstructionLevel, 200000, 0, 3)
	singleNode.Phases[0].Comm = stochastic.Comm{}
	if err := run("ppc601", machine.PPC601Machine(), singleNode); err != nil {
		return nil, err
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
}

// taskLevelSlowdown (E3) measures the fast-prototyping level: computation is
// simulated as whole tasks, so an entire multicomputer simulates with only a
// minor slowdown (the paper: 0.5–4 per processor, dominated by the amount of
// communication in the load).
func taskLevelSlowdown(Spec) (*ResultSet, error) {
	tb := stats.NewTable("machine", "procs", "sim cycles", "wall ms",
		"cycles/s", "slowdown/proc @143MHz", "@1GHz")
	keys := Keys{}

	cases := []struct {
		label string
		iters int
		dur   int64
	}{
		{"t805-4x4-compute-heavy", 20, 500000},
		{"t805-4x4-comm-heavy", 200, 5000},
	}
	for _, c := range cases {
		m, err := machine.New(machine.T805GridTaskLevel(4, 4))
		if err != nil {
			return nil, err
		}
		res, err := m.RunStochastic(slowdownDesc(16, stochastic.TaskLevel, 0, c.dur, c.iters))
		if err != nil {
			return nil, err
		}
		tb.Row(c.label, res.Processors, int64(res.Cycles),
			float64(res.Wall.Microseconds())/1000,
			res.CyclesPerSecond(),
			res.SlowdownPerProcessor(143e6),
			res.SlowdownPerProcessor(1e9))
		keys[c.label+"/cycles_per_sec"] = res.CyclesPerSecond()
		keys[c.label+"/slowdown143"] = res.SlowdownPerProcessor(143e6)
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
}

// memoryScaling (E4) measures host memory per simulated node as the machine
// grows (sweep parameter "nodes", a comma-separated list of square node
// counts). Because the simulator interprets no machine instructions and
// caches hold only tags, the footprint stays small and is dominated by the
// trace-generating side (§6). The probes run through the farm for panic
// isolation but always sequentially: heap accounting via runtime.MemStats is
// process-global, so concurrent probes would attribute each other's
// allocations.
func memoryScaling(s Spec) (*ResultSet, error) {
	nodeCounts, err := s.intsParam("nodes", defMemoryNodes)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("nodes", "heap KiB", "KiB/node")
	keys := Keys{}
	jobs := make([]farm.Job, len(nodeCounts))
	for i, n := range nodeCounts {
		n := n
		jobs[i] = farm.Job{Name: fmt.Sprintf("nodes=%d", n), Run: func(rc *farm.RunContext) (any, error) {
			heap, err := heapForTaskMachine(n)
			if err != nil {
				return nil, err
			}
			perNode := float64(heap) / 1024 / float64(n)
			return measurement{
				row:  []any{n, float64(heap) / 1024, perNode},
				keys: Keys{fmt.Sprintf("kib_per_node_%d", n): perNode},
			}, nil
		}}
	}
	if err := collect(Spec{Workers: 1}, jobs, tb, keys); err != nil {
		return nil, err
	}
	// Tags-only evidence: host cost of a cache is independent of simulated
	// capacity.
	small := cacheHostBytes(32 << 10)
	big := cacheHostBytes(4 << 20)
	keys["cache_host_ratio"] = float64(big) / float64(small)
	tb.Row("cache 32KiB vs 4MiB host bytes", fmt.Sprintf("%d vs %d", small, big), keys["cache_host_ratio"])
	return &ResultSet{Table: tb, Keys: keys}, nil
}

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
	m, err := machine.New(machine.T805GridTaskLevel(side, side))
	if err != nil {
		return 0, err
	}
	res, err := m.RunStochastic(slowdownDesc(n, stochastic.TaskLevel, 0, 1000, 2))
	if err != nil {
		return 0, err
	}
	_ = res
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0, nil
	}
	runtime.KeepAlive(m)
	return after.HeapAlloc - before.HeapAlloc, nil
}

func cacheHostBytes(size int) int {
	// Host bookkeeping for a cache of the given simulated capacity with
	// 32-byte lines: lines * 32 bytes of tag/state metadata.
	return size / 32 * 32
}

// hybridAgreement (E5) runs the same annotated program once through the
// detailed model (deriving a task-level trace on the fly, Fig. 2) and then
// replays the derived trace through the task-level model. The two abstraction
// levels must agree on execution time, since the communication model is
// shared and the task durations were measured by the detailed model.
func hybridAgreement(Spec) (*ResultSet, error) {
	const nodes = 4
	detailed, err := machine.New(machine.T805Grid(2, 2))
	if err != nil {
		return nil, err
	}
	sinks := make([]bytes.Buffer, nodes)
	for i := 0; i < nodes; i++ {
		if err := detailed.SetTaskSink(i, &sinks[i]); err != nil {
			return nil, err
		}
	}
	resD, err := detailed.RunProgram(workload.Jacobi1D(nodes, 128, 5))
	if err != nil {
		return nil, err
	}
	if err := detailed.FlushTaskSinks(); err != nil {
		return nil, err
	}

	taskM, err := machine.New(machine.T805GridTaskLevel(2, 2))
	if err != nil {
		return nil, err
	}
	srcs := make([]trace.Source, nodes)
	for i := 0; i < nodes; i++ {
		srcs[i] = trace.FromReader(&sinks[i])
	}
	resT, err := taskM.Run(srcs)
	if err != nil {
		return nil, err
	}

	ratio := float64(resT.Cycles) / float64(resD.Cycles)
	tb := stats.NewTable("abstraction level", "sim cycles", "wall ms", "events")
	tb.Row("detailed (instruction)", int64(resD.Cycles), float64(resD.Wall.Microseconds())/1000, int64(resD.Events))
	tb.Row("task-level (derived trace)", int64(resT.Cycles), float64(resT.Wall.Microseconds())/1000, int64(resT.Events))
	keys := Keys{
		"detailed_cycles": float64(resD.Cycles),
		"task_cycles":     float64(resT.Cycles),
		"ratio":           ratio,
		"detailed_events": float64(resD.Events),
		"task_events":     float64(resT.Events),
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
}
