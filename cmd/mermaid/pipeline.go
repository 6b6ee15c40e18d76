package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"mermaid/internal/hostprobe"
	"mermaid/internal/pipeline"
)

const pipelineUsage = `usage: mermaid pipeline <command> [flags] [args]

commands:
  run      -grid <file> [-out dir] [-root dir] [-parallel N]
           execute a grid specification into an artifact directory
  diff     [-o file] <beforeDir> <afterDir>
           compare two artifact directories into a before/after JSON delta
  validate <dir>
           re-check an artifact directory against its manifest
`

// pipelineMain dispatches the `mermaid pipeline` subcommands.
func pipelineMain(args []string) error {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, pipelineUsage)
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		fs := flag.NewFlagSet("pipeline run", flag.ExitOnError)
		gridPath := fs.String("grid", "", "grid specification JSON file (required)")
		out := fs.String("out", "", "artifact directory (default: a fresh timestamped directory under -root)")
		root := fs.String("root", "runs", "parent directory for timestamped runs")
		parallel := fs.Int("parallel", runtime.NumCPU(), "max experiment runs in flight")
		hostTrace := fs.String("host-trace", "", "write the pipeline's wall-clock schedule (Chrome trace-event JSON: worker runs, write and hash stages) to this file")
		fs.Parse(rest)
		if *parallel < 1 {
			return fmt.Errorf("pipeline run: -parallel must be at least 1, have %d", *parallel)
		}
		if *gridPath == "" {
			return fmt.Errorf("pipeline run: -grid is required")
		}
		data, err := os.ReadFile(*gridPath)
		if err != nil {
			return err
		}
		grid, err := pipeline.ParseGrid(data)
		if err != nil {
			return err
		}
		var host *hostprobe.Trace
		if *hostTrace != "" {
			host = hostprobe.NewTrace()
		}
		man, dir, err := pipeline.Run(grid, pipeline.Options{
			Dir: *out, Root: *root, Workers: *parallel, Log: os.Stderr, Host: host,
		})
		if err != nil {
			return err
		}
		writeHostTrace(host, *hostTrace)
		fmt.Printf("mermaid: wrote %s (%d runs, %d files)\n", dir, len(man.Runs), len(man.Files))
		return nil

	case "diff":
		fs := flag.NewFlagSet("pipeline diff", flag.ExitOnError)
		outPath := fs.String("o", "", "write the JSON report to this file instead of stdout")
		fs.Parse(rest)
		if fs.NArg() != 2 {
			return fmt.Errorf("pipeline diff: want two artifact directories, got %d args", fs.NArg())
		}
		rep, err := pipeline.Diff(fs.Arg(0), fs.Arg(1))
		if err != nil {
			return err
		}
		if *outPath != "" {
			if err := writeFileWith(*outPath, rep.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "mermaid: wrote %s (%d changed deterministic metrics)\n", *outPath, rep.Changed)
			return nil
		}
		return rep.WriteJSON(os.Stdout)

	case "validate":
		if len(rest) != 1 {
			return fmt.Errorf("pipeline validate: want one artifact directory, got %d args", len(rest))
		}
		if err := pipeline.Validate(rest[0]); err != nil {
			return err
		}
		fmt.Printf("mermaid: %s validates against its manifest\n", rest[0])
		return nil

	default:
		fmt.Fprint(os.Stderr, pipelineUsage)
		return fmt.Errorf("pipeline: unknown command %q", cmd)
	}
}
