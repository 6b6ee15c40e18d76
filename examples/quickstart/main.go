// Quickstart: build a multicomputer model, run an instrumented parallel
// application on it, and read the report — the whole workbench in ~30 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"mermaid/internal/core"
	"mermaid/internal/machine"
	"mermaid/internal/workload"
)

func main() {
	// A 4x4 grid of T805 transputers, simulated at the detailed
	// (abstract-machine-instruction) level.
	wb, err := core.New(machine.T805Grid(4, 4))
	if err != nil {
		log.Fatal(err)
	}

	// A 1-D Jacobi solver: 16 threads, 1024 grid cells, 10 sweeps with halo
	// exchanges. The program really executes — its control flow and data
	// drive the trace generation, interleaved with the simulation.
	prog := workload.Jacobi1D(16, 1024, 10)

	m, err := wb.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.RunProgram(prog)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Jacobi on %d transputers took %d simulated cycles (%.2f ms at 30 MHz)\n\n",
		res.Processors, res.Cycles, float64(res.Cycles)/30e6*1000)
	if err := wb.Report(os.Stdout, res); err != nil {
		log.Fatal(err)
	}
}
