package main

import (
	_ "embed"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mermaid/internal/pipeline"
)

// The design-space grid the sweep workload executes: a cache study split
// over sizes and associativities, a network study over three message sizes,
// the coherence, interconnect, scaling, validity, imbalance and
// fault-resilience experiments. It is committed so every commit runs the
// same points.
//
//go:embed grid.json
var gridJSON []byte

// The quick grid drives the same code path in a fraction of a second.
//
//go:embed grid-quick.json
var gridQuickJSON []byte

// gridRunner executes the grid through pipeline.Run on all cores, then
// re-checks the artifact directory with pipeline.Validate — what a user
// does for one design-space exploration.
type gridRunner struct {
	rc   runConfig
	grid *pipeline.GridSpec
	next int // execution counter, for unique directories
}

func newGridRunner(_ *workload, rc runConfig) runner { return &gridRunner{rc: rc} }

func (r *gridRunner) prepare(int) error {
	src := gridJSON
	if r.rc.quick {
		src = gridQuickJSON
	}
	g, err := pipeline.ParseGrid(src)
	if err != nil {
		return err
	}
	// The grid's base seed follows the run seed; the goldens belong to the
	// default one.
	g.Seed = r.rc.seed
	r.grid = g
	return nil
}

func (r *gridRunner) warm() error {
	_, err := r.execute(nil, -1)
	return err
}

// gridExecution is what one execution produced.
type gridExecution struct {
	wall       time.Duration
	runs       int
	detHash    string // hash over the deterministic experiments' CSV hashes
	artifactMB float64
	overhead   float64 // 1 - sum(run wall) / (workers x Run wall)
	validateMS float64
}

func (r *gridRunner) execute(tr *tracer, req int) (gridExecution, error) {
	var ex gridExecution
	dir := filepath.Join(r.rc.workDir, fmt.Sprintf("grid-%d", r.next))
	r.next++
	defer os.RemoveAll(dir)

	start := time.Now()
	root := tr.begin("execution", -1, req, 0)
	sp := tr.begin("pipeline.run", root, req, 0)
	man, _, err := pipeline.Run(r.grid, pipeline.Options{
		Dir:       dir,
		Workers:   r.rc.nproc,
		GitCommit: "benchmark", // no `git rev-parse` child per execution
	})
	tr.end(sp)
	runWall := time.Since(start)
	if err != nil {
		return ex, err
	}
	vStart := time.Now()
	sp = tr.begin("pipeline.validate", root, req, 0)
	err = pipeline.Validate(dir)
	tr.end(sp)
	tr.end(root)
	ex.validateMS = ms(time.Since(vStart))
	ex.wall = time.Since(start)
	if err != nil {
		return ex, err
	}

	ex.runs = len(man.Runs)
	var runMS float64
	det := map[string]bool{}
	for _, run := range man.Runs {
		runMS += run.WallMs
		if run.Deterministic {
			for _, f := range run.Files {
				if strings.HasPrefix(f, "csv/") {
					det[f] = true
				}
			}
		}
	}
	if runWall > 0 && r.rc.nproc > 0 {
		ex.overhead = 1 - runMS/(float64(r.rc.nproc)*ms(runWall))
	}
	var lines []string
	for f := range det {
		lines = append(lines, f+" "+man.Files[f])
	}
	sort.Strings(lines)
	if len(lines) == 0 {
		return ex, fmt.Errorf("grid execution wrote no deterministic CSV")
	}
	ex.detHash = hashHex([]byte(strings.Join(lines, "\n")))

	var bytes int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytes += info.Size()
		}
		return err
	})
	ex.artifactMB = float64(bytes) / (1 << 20)
	return ex, err
}

func (r *gridRunner) pass(n int, tr *tracer) *passResult {
	p := &passResult{}
	var overhead, artifact, validate []float64
	runs := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		p.attempted++
		ex, err := r.execute(t, i)
		if err != nil {
			p.fail("execution %d: %v", i, err)
			continue
		}
		if len(p.digestParts) > 0 && ex.detHash != p.digestParts[0] {
			p.fail("execution %d: deterministic CSV hashes differ from execution 0", i)
			continue
		}
		p.digestParts = append(p.digestParts, ex.detHash)
		lat := ms(ex.wall)
		p.opMS = append(p.opMS, lat)
		if t != nil {
			p.tracedMS = append(p.tracedMS, lat)
		} else {
			p.untracedMS = append(p.untracedMS, lat)
		}
		runs += ex.runs
		overhead = append(overhead, ex.overhead)
		artifact = append(artifact, ex.artifactMB)
		validate = append(validate, ex.validateMS)
	}
	p.wall = time.Since(start)
	if len(p.opMS) > 0 {
		p.set("runs_per_s", float64(runs)/p.wall.Seconds(), runs)
		p.set("pipeline.overhead_share", median(overhead), len(overhead))
		p.set("pipeline.artifact_mb", median(artifact), len(artifact))
		p.set("pipeline.validate_ms", median(validate), len(validate))
	}
	return p
}

// verify repeats one execution; the deterministic CSVs must hash as before.
func (r *gridRunner) verify(p *passResult) error {
	if len(p.digestParts) == 0 {
		return fmt.Errorf("no completed execution to verify")
	}
	ex, err := r.execute(nil, 0)
	if err != nil {
		return fmt.Errorf("re-running the grid: %w", err)
	}
	if ex.detHash != p.digestParts[0] {
		return fmt.Errorf("the grid is not repeatable: deterministic CSV hashes changed")
	}
	return nil
}

func (r *gridRunner) close() {}
