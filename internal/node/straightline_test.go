package node_test

import (
	"bytes"
	"fmt"
	"testing"

	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/machine"
	"mermaid/internal/node"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
)

// The straight line of a node's runner — a stream's computational operations
// executed one CPU.Begin after the other, each Stepped through its holds and
// resource waits inside the runner's one chain — must be invisible: the same
// node driven by one process per CPU, blocking in a cpu.CPU.Exec of its own
// for every operation and in a Hold for every task-level compute operation,
// has to end at the same time after the same number of events, with the same
// statistics for every CPU and every level of its memory system, on every
// kind of node. (What both must reproduce of the runs as the workbench
// reports them is pinned by TestDetailedDigests.)

// nodeRun is what a run of one node leaves behind.
type nodeRun struct {
	end    pearl.Time
	events uint64
	report string
}

// runNode runs one stream per CPU on a node built from cfg, either through
// the node's runners or, blocking, through processes calling CPU.Exec.
func runNode(t *testing.T, cfg node.Config, traces [][]ops.Op, blocking bool) nodeRun {
	t.Helper()
	k := pearl.NewKernel()
	nd, err := node.New(sim.Env{Kernel: k, RNG: pearl.NewRNG(11)}, node.Params{ID: 0, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var execErr error
	for i, tr := range traces {
		if !blocking {
			nd.Run(i, trace.FromOps(tr))
			continue
		}
		c, tr := nd.CPU(i), tr
		k.Spawn(fmt.Sprintf("cpu%d", i), func(p *pearl.Process) {
			for _, o := range tr {
				if o.Kind == ops.Compute {
					if o.Dur > 0 {
						p.Hold(pearl.Time(o.Dur))
					}
					continue
				}
				if err := c.Exec(p, o); err != nil {
					execErr = err
					return
				}
			}
		})
	}
	end := k.Run()
	if execErr != nil {
		t.Fatal(execErr)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	if len(nd.Blocked()) != 0 {
		t.Fatalf("runners left blocked: %v", nd.Blocked())
	}
	var buf bytes.Buffer
	if err := stats.RenderSet(&buf, nd.Stats()); err != nil {
		t.Fatal(err)
	}
	return nodeRun{end: end, events: k.EventCount(), report: buf.String()}
}

func TestStraightLineIsInvisible(t *testing.T) {
	storeBuffered := machine.PPC601Node()
	for i := range storeBuffered.Hierarchy.Private {
		storeBuffered.Hierarchy.Private[i].Write = cache.WriteThrough
	}
	storeBuffered.Hierarchy.StoreBuffer = 4
	splitL1 := machine.PPC601Node()
	splitL1.Hierarchy.SplitL1 = true
	splitL1.Hierarchy.L1I = cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2, HitLatency: 1}
	directory := machine.PPC601SMP(4).Node
	directory.Hierarchy.Coherence = cache.Directory
	directory.Hierarchy.DirLookupLatency = 2
	directory.Hierarchy.DirMessageLatency = 3
	directory.Hierarchy.Bus = bus.Config{Kind: bus.KindCrossbar, Width: 8, ArbitrationDelay: 1, Banks: 4, InterleaveBytes: 64}

	cases := []struct {
		name   string
		cfg    node.Config
		traces [][]ops.Op
	}{
		{"ppc601-node", machine.PPC601Node(), ringTraces(1, 1, 1, 3000)},
		{"store-buffer-node", storeBuffered, ringTraces(1, 1, 1, 3000)},
		{"split-l1-node", splitL1, ringTraces(1, 1, 1, 3000)},
		{"smp-node", machine.PPC601SMP(4).Node, ringTraces(1, 4, 1, 1500)},
		{"smp-node-contended", machine.PPC601SMP(4).Node, sharingTraces(4, 1500)},
		{"directory-node", directory, ringTraces(1, 4, 1, 1500)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			straight := runNode(t, tc.cfg, tc.traces, false)
			blocking := runNode(t, tc.cfg, tc.traces, true)
			if straight.end != blocking.end || straight.events != blocking.events {
				t.Errorf("straight line ends at %d after %d events, blocking at %d after %d",
					straight.end, straight.events, blocking.end, blocking.events)
			}
			if straight.report != blocking.report {
				t.Errorf("statistics differ\nstraight line:\n%s\nblocking:\n%s", straight.report, blocking.report)
			}
			t.Logf("%d cycles, %d events", straight.end, straight.events)
		})
	}
}
