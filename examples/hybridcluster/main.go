// Hybridcluster demonstrates the §4.3 hybrid architecture: clusters of
// shared-memory multiprocessors (multi-CPU nodes with snoopy-MESI private
// caches) interconnected by a message-passing wormhole torus. One workload
// exercises both coherence inside the nodes and the network between them.
//
//	go run ./examples/hybridcluster
package main

import (
	"fmt"
	"log"

	"mermaid/internal/annotate"
	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
)

// hybridReduce: on each SMP node, all CPUs accumulate into a node-local
// shared counter (coherence traffic); then CPU 0 of each node reduces the
// node results around the inter-node ring (network traffic).
func hybridReduce(nodes, cpusPerNode, localWork int) *trace.Program {
	return &trace.Program{
		Threads: nodes * cpusPerNode,
		Body: func(th *trace.Thread) {
			nodeID := th.ID() / cpusPerNode
			cpuID := th.ID() % cpusPerNode
			u := annotate.New(th, annotate.GenericTarget())
			shared := u.Global("nodeSum", ops.MemWord) // same line on all CPUs of a node
			u.Enter("main")
			defer u.Leave()

			// Phase 1: every CPU hammers the node-shared counter.
			u.Loop("local", localWork, func(int) {
				u.Load(shared)
				u.Arith(ops.Add, ops.TypeInt)
				u.Store(shared)
			})

			// Phase 2: CPU 0 of each node participates in an inter-node ring
			// reduction. (Peers are node ids: any CPU of a node shares its
			// network interface.)
			if cpuID == 0 && nodes > 1 {
				next, prev := (nodeID+1)%nodes, (nodeID-1+nodes)%nodes
				u.Loop("ring", nodes-1, func(int) {
					if nodeID == nodes-1 {
						u.Recv(prev, 1)
						u.Send(next, 8, 1, nil)
					} else {
						u.Send(next, 8, 1, nil)
						u.Recv(prev, 1)
					}
					u.Arith(ops.Add, ops.TypeInt)
				})
			}
		},
	}
}

func main() {
	const w, h, cpus = 2, 2, 2
	m, err := machine.New(machine.HybridCluster(w, h, cpus))
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.RunProgram(hybridReduce(w*h, cpus, 200))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hybrid cluster: %d SMP nodes x %d CPUs on a %dx%d wormhole torus\n",
		w*h, cpus, w, h)
	fmt.Printf("simulated time: %d cycles\n\n", res.Cycles)

	// Coherence traffic inside node 0, read from the run's report.
	tb := stats.NewTable("CPU", "L1 hits", "L1 misses", "snoop invalidations")
	for c := 0; c < cpus; c++ {
		l1 := res.Stats.Lookup("node0", "memory-hierarchy", fmt.Sprintf("node0.cpu%d.L1", c))
		tb.Row(c, metric(l1, "hits"), metric(l1, "misses"), metric(l1, "snoop invalidations"))
	}
	fmt.Println("intra-node coherence (node 0):")
	if err := tb.Render(log.Writer()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ninter-node network:")
	if err := stats.RenderSet(log.Writer(), res.Stats.Prefixed("network ")); err != nil {
		log.Fatal(err)
	}
}

// metric reads a counter of a report set; a report without it is fatal.
func metric(set *stats.Set, name string) int64 {
	v, ok := set.Get(name)
	if !ok {
		log.Fatalf("report set %q has no metric %q", set.Name, name)
	}
	return int64(v)
}
