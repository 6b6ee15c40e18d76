package node

import (
	"math"
	"runtime"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/sim"
	"mermaid/internal/trace"
)

// TestAllocFreeRunAhead pins the cost model of a private node's straight
// line: served ahead of the kernel, an instruction — a hit, a miss with its
// write-back, an arithmetic hold — allocates nothing once the node is built
// and a line as long has run, however many lines follow. Runs of 2 and 12
// lines of 10,000 instructions, each ended by a task-level compute
// operation, must allocate the same, with no observer, with the bottleneck
// collector attached, which the runner feeds every hold it serves ahead,
// and with a sampler's daemon ticking every 1,000 cycles, which cuts the
// lines at its instants: a cut line's record is reused as any other.
//
// The count is the process's, so the runtime or a goroutine another test
// left running could add to it: each size is measured with GOMAXPROCS at 1,
// as testing.AllocsPerRun does, after a collection (one that building the
// stream left due would start inside the run, and starting one allocates),
// and the fewest of three runs counts. An allocation per line shows in
// every run, ten times over; a stray one does not, and the comparison stays
// exact.
func TestAllocFreeRunAhead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const line = 10_000
	stream := func(lines int) []ops.Op {
		r := pearl.NewRNG(3)
		out := make([]ops.Op, 0, lines*(line+1))
		for len(out) < cap(out) {
			if len(out)%(line+1) == line {
				out = append(out, ops.NewCompute(5))
				continue
			}
			addr := 0x1000 + uint64(r.Intn(8<<10))&^3 // 8 KiB over a 1 KiB cache
			switch r.Intn(5) {
			case 0:
				out = append(out, ops.NewIFetch(0x40_0000+uint64(len(out)%64)*4))
			case 1:
				out = append(out, ops.NewLoad(ops.MemWord, addr))
			case 2:
				out = append(out, ops.NewStore(ops.MemWord, addr))
			case 3:
				out = append(out, ops.NewArith(ops.Mul, ops.TypeDouble))
			case 4:
				out = append(out, ops.NewBranch(0x40_0000))
			}
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name     string
		observed bool
		every    pearl.Time
	}{{"plain", false, 0}, {"collector", true, 0}, {"sampled", false, 1000}} {
		ticks := uint64(0)
		run := func(lines int) (mallocs, events, dispatches uint64) {
			k := pearl.NewKernel()
			env := sim.Env{Kernel: k}
			if c.observed {
				env = env.WithCollector(analysis.New())
			}
			nd, err := New(env, Params{ID: 0, Cfg: nodeConfig(1)})
			if err != nil {
				t.Fatal(err)
			}
			ticks = 0
			if c.every > 0 {
				var tick func()
				tick = func() {
					ticks++
					k.AtDaemon(k.Now()+c.every, tick)
				}
				k.AtDaemon(c.every, tick)
			}
			nd.Run(0, trace.FromOps(stream(lines)))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			k.Run()
			runtime.ReadMemStats(&after)
			if err := nd.Err(); err != nil {
				t.Fatal(err)
			}
			if got, want := nd.CPU(0).Instructions(), uint64(lines*line); got != want {
				t.Fatalf("%d instructions retired, want %d", got, want)
			}
			return after.Mallocs - before.Mallocs, k.EventCount(), k.Dispatches()
		}
		fewest := func(lines int) (mallocs, events, dispatches uint64) {
			mallocs = math.MaxUint64
			for i := 0; i < 3; i++ {
				m, e, d := run(lines)
				mallocs, events, dispatches = min(mallocs, m), e, d
			}
			return mallocs, events, dispatches
		}
		shortAllocs, _, _ := fewest(2)
		longAllocs, events, dispatches := fewest(12)
		t.Logf("%s: %d events, %d dispatched, %d ticks; %d allocations over 2 lines, %d over 12", c.name, events, dispatches, ticks, shortAllocs, longAllocs)
		if dispatches > 3*(12+ticks) {
			t.Fatalf("%s: %d of %d events dispatched, %d ticks: the lines did not run ahead", c.name, dispatches, events, ticks)
		}
		if c.every > 0 && ticks < 12 {
			t.Fatalf("%s: %d ticks over 12 lines: the lines were not cut", c.name, ticks)
		}
		if longAllocs > shortAllocs {
			t.Errorf("%s: %d allocations over 12 lines of %d instructions, %d over 2: %.5f per instruction; want 0",
				c.name, longAllocs, line, shortAllocs, float64(longAllocs-shortAllocs)/(10*line))
		}
	}
}
