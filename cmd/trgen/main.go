// Command trgen is the stochastic trace generator tool (§3): it turns a
// probabilistic application description (JSON) into per-node binary
// operation trace files that can drive the architecture simulators, or dumps
// them one operation per line as a debug listing (nothing reads it back).
//
// Usage:
//
//	trgen -example > desc.json            # print a starter description
//	trgen -desc desc.json -out traces/    # write traces/node0.mmt ...
//	trgen -desc desc.json -print | head   # debug dump
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mermaid/internal/ops"
	"mermaid/internal/stochastic"
)

func main() {
	var (
		descPath = flag.String("desc", "", "stochastic description JSON file")
		outDir   = flag.String("out", "", "directory for per-node binary traces (node<i>.mmt)")
		print    = flag.Bool("print", false, "dump traces as text to stdout")
		example  = flag.Bool("example", false, "print an example description and exit")
	)
	flag.Parse()

	if *example {
		printExample()
		return
	}
	if *descPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*descPath)
	if err != nil {
		fatal(err)
	}
	d, err := stochastic.ParseDesc(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *descPath, err))
	}
	traces, err := stochastic.Generate(d)
	if err != nil {
		fatal(err)
	}

	if *print {
		for node, tr := range traces {
			for _, o := range tr {
				fmt.Printf("%d: %s\n", node, o)
			}
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		for node, tr := range traces {
			path := filepath.Join(*outDir, fmt.Sprintf("node%d.mmt", node))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := ops.WriteAll(f, tr); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trgen: wrote %s (%d operations)\n", path, len(tr))
		}
	}
	if !*print && *outDir == "" {
		fatal(fmt.Errorf("nothing to do: pass -out and/or -print"))
	}
}

func printExample() {
	d := stochastic.Desc{
		Name:       "compute-exchange",
		Nodes:      4,
		Level:      stochastic.TaskLevel,
		Seed:       42,
		Iterations: 10,
		Phases: []stochastic.Phase{{
			Name:     "sweep",
			Duration: 50000,
			CV:       0.2,
			Comm:     stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 4096},
		}},
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trgen:", err)
	os.Exit(1)
}
