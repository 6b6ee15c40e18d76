package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteMain runs every workload, untraced then traced, each in a child
// process of its own (this binary with -workload), so peak memory and
// collector state belong to one workload. The children print every metric;
// their result files land under outDir.
func suiteMain(o options, outDir string, repeat int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if outDir == "" {
		outDir = filepath.Join("benchmark", "results", "seed"+strconv.FormatUint(o.seed, 10))
	}
	if repeat < 1 {
		repeat = 1
	}
	failed := 0
	for r := 1; r <= repeat; r++ {
		dir := outDir
		if repeat > 1 {
			dir = filepath.Join(outDir, fmt.Sprintf("run%d", r))
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for _, w := range workloads {
			for _, trace := range []int{0, 1} {
				args := []string{
					"-workload", w.name,
					"-seed", strconv.FormatUint(o.seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(trace),
					"-result", filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", w.name, trace)),
				}
				if trace == 1 {
					args = append(args, "-trace-out", filepath.Join(dir, w.name+".spans.json"))
				}
				if o.quick {
					args = append(args, "-quick")
				}
				if o.updateExpected {
					args = append(args, "-update-expected")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.name, trace, err)
					failed++
				}
			}
		}
	}
	fmt.Printf("results in %s\n", outDir)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d run(s) failed\n", failed)
		return 1
	}
	return 0
}
