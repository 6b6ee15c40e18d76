// Dsmstencil runs the same Jacobi stencil twice on the same 2x2 torus of
// PowerPC 601 nodes: once with explicit halo messages (the message-passing
// programming model) and once against the virtual shared memory layer — the
// paper's §5 future-work feature, where loads to remote grid cells fault
// through a page-based DSM protocol and no communication appears in the
// application at all.
//
//	go run ./examples/dsmstencil
package main

import (
	"fmt"
	"log"

	"mermaid/internal/machine"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

func main() {
	const nodes, cells, iters = 4, 4096, 5 // 32 KiB grid: 8 pages of 4 KiB

	// Explicit message passing.
	resMsg := run(machine.HybridCluster(2, 2, 1), workload.Jacobi1D(nodes, cells, iters))

	fmt.Printf("Jacobi, %d cells, %d iterations, %d nodes:\n\n", cells, iters, nodes)
	tb := stats.NewTable("programming model", "sim cycles", "network messages",
		"payload bytes", "page faults")
	net := resMsg.Stats.Prefixed("network ")
	tb.Row("explicit messages", int64(resMsg.Cycles), metric(net, "messages"),
		metric(net, "payload bytes"), "-")

	// Virtual shared memory, at two page sizes: the coherence-unit design
	// tradeoff — big pages amortise protocol costs but suffer (false)
	// sharing at the slice boundaries.
	var dsm *stats.Set
	for _, pageKiB := range []uint64{4, 1} {
		cfg := machine.DSMCluster(2, 2)
		cfg.DSM.PageSize = pageKiB << 10
		res := run(cfg, workload.JacobiDSM(nodes, cells, iters))
		net, dsm = res.Stats.Prefixed("network "), res.Stats.Lookup("dsm")
		tb.Row(fmt.Sprintf("virtual shared memory, %dK pages", pageKiB),
			int64(res.Cycles), metric(net, "messages"), metric(net, "payload bytes"),
			metric(dsm, "read faults")+metric(dsm, "write faults"))
	}
	if err := tb.Render(log.Writer()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nDSM protocol activity (1K pages):")
	if err := stats.RenderSet(log.Writer(), dsm); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe DSM versions issue no sends or recvs, yet remote grid")
	fmt.Println("cells arrive — at the cost of page-granularity transfers and")
	fmt.Println("boundary-page ping-pong, which the page size trades off.")
}

// run builds the machine and runs the program on it.
func run(cfg machine.Config, prog *trace.Program) *machine.Result {
	m, err := machine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.RunProgram(prog)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// metric reads a counter of a report set; a report without it is fatal.
func metric(set *stats.Set, name string) int64 {
	v, ok := set.Get(name)
	if !ok {
		log.Fatalf("report set %q has no metric %q", set.Name, name)
	}
	return int64(v)
}
