package core_test

import (
	"fmt"
	"log"

	"mermaid/internal/core"
	"mermaid/internal/machine"
	"mermaid/internal/workload"
)

// Simulations are fully deterministic, so the simulated cycle count is a
// stable, reproducible output.
func Example() {
	wb, err := core.New(machine.T805Grid(2, 1))
	if err != nil {
		log.Fatal(err)
	}
	m, err := wb.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.RunProgram(workload.PingPong(3, 256))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d processors, %d simulated cycles\n", res.Processors, res.Cycles)
	// Output:
	// 2 processors, 19545 simulated cycles
}
