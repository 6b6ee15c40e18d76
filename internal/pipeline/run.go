package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mermaid/internal/experiments"
	"mermaid/internal/farm"
	"mermaid/internal/hostprobe"
	"mermaid/internal/stats"
)

// Options tunes a pipeline execution.
type Options struct {
	// Dir is the artifact directory to write into. Empty means a fresh
	// timestamped directory under Root.
	Dir string
	// Root is the parent of timestamped run directories (default "runs").
	Root string
	// Workers is the host worker count. Values below 1 mean sequential.
	Workers int
	// GitCommit overrides commit discovery (default: `git rev-parse HEAD`,
	// falling back to "unknown").
	GitCommit string
	// Now supplies the timestamp for directory naming and the manifest
	// (default time.Now) — injectable for tests.
	Now func() time.Time
	// Log receives one progress line per completed run (default: discard).
	Log io.Writer
	// Host, when non-nil, records the pipeline's wall-clock schedule: one
	// span per experiment run on the farm's worker tracks, plus
	// coordinator-stage spans (runs, write, hash) on a "pipeline" track.
	// Host telemetry never changes artifacts — the directory layout,
	// manifest and file hashes are identical with and without it.
	Host *hostprobe.Trace
}

// unit is one scheduled experiment execution.
type unit struct {
	exp     experiments.Experiment
	point   Point
	replica int
	group   string // display group: "name" or "name@k=v ..."
	id      string // filesystem id: sanitized group plus replica suffix
}

// unitOutput is a run's outcome, produced inside a farm worker and written
// to disk by the single-threaded collector in submission order.
type unitOutput struct {
	record RunRecord
	files  []namedFile
	schema stats.Schema
	csv    string // relative CSV path, key into Manifest.Schemas
}

type namedFile struct {
	path string // relative to the run directory
	data []byte
}

// Run executes a grid through the simulation farm into an artifact
// directory and returns the manifest and the directory path.
//
// Every design point's replicas run as independent farm jobs; all file
// writing happens on the caller's goroutine in submission order, so the
// directory layout and the manifest are deterministic for any worker count.
func Run(grid *GridSpec, opts Options) (*Manifest, string, error) {
	if err := grid.validate(); err != nil {
		return nil, "", err
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	dir, err := resolveDir(opts.Dir, opts.Root, now())
	if err != nil {
		return nil, "", err
	}

	units := expandUnits(grid)
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}
	var logMu sync.Mutex
	pool := farm.New(opts.Workers)
	pool.Seed = grid.Seed
	pool.Host = opts.Host
	hostTrk := opts.Host.Track("pipeline") // nil-safe: all hostprobe calls no-op without a trace
	pool.OnResult = func(r farm.Result) {
		logMu.Lock()
		defer logMu.Unlock()
		status := "ok"
		if r.Err != nil {
			status = "FAILED"
		}
		fmt.Fprintf(logw, "pipeline: %s %s (%.0f ms)\n", r.Name, status, float64(r.Wall.Microseconds())/1000)
	}

	jobs := make([]farm.Job, len(units))
	for i, u := range units {
		u := u
		jobs[i] = farm.Job{Name: u.id, Run: func(rc *farm.RunContext) (any, error) {
			start := time.Now()
			rs, err := u.exp.Execute(experiments.Spec{
				Workers: 1, // the pipeline owns host parallelism
				Sweep:   u.point,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", u.id, err)
			}
			return buildOutput(u, rs, time.Since(start))
		}}
	}
	runsStart := time.Now()
	rep := pool.Run(jobs)
	opts.Host.SpanSince(hostTrk, "runs", runsStart)
	if err := rep.Errs(); err != nil {
		return nil, "", err
	}

	man := &Manifest{
		Version:   manifestVersion,
		Name:      grid.Name,
		CreatedAt: now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GitCommit: gitCommit(opts.GitCommit),
		Grid:      grid,
		Schemas:   map[string]stats.Schema{},
		Files:     map[string]string{},
	}

	// Single-threaded writer: submission order, independent of completion
	// order.
	writeStart := time.Now()
	for _, v := range rep.Values() {
		out := v.(*unitOutput)
		for _, f := range out.files {
			if err := writeFile(dir, f); err != nil {
				return nil, "", err
			}
		}
		man.Schemas[out.csv] = out.schema
		man.Runs = append(man.Runs, out.record)
	}

	sum, err := summaryFile(man.Runs)
	if err != nil {
		return nil, "", err
	}
	if err := writeFile(dir, sum); err != nil {
		return nil, "", err
	}
	man.Schemas[sum.path] = summarySchema
	opts.Host.SpanSince(hostTrk, "write", writeStart)

	hashStart := time.Now()
	files, err := listArtifacts(dir)
	if err != nil {
		return nil, "", err
	}
	for _, rel := range files {
		h, err := hashFile(filepath.Join(dir, rel))
		if err != nil {
			return nil, "", err
		}
		man.Files[rel] = h
	}
	opts.Host.SpanSince(hostTrk, "hash", hashStart)

	mf, err := os.Create(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, "", err
	}
	if err := man.writeJSON(mf); err != nil {
		mf.Close()
		return nil, "", err
	}
	if err := mf.Close(); err != nil {
		return nil, "", err
	}
	return man, dir, nil
}

// expandUnits flattens the grid into scheduled units: experiments in grid
// order, points in deterministic cross-product order, then replicas.
func expandUnits(grid *GridSpec) []unit {
	var units []unit
	for _, ge := range grid.Experiments {
		e, _ := experiments.ByName(ge.Name) // validated by grid.Validate
		repeats := grid.Repeats
		if ge.Repeats > 0 {
			repeats = ge.Repeats
		}
		if repeats < 1 {
			repeats = 1
		}
		for _, pt := range ge.points() {
			group := e.Name
			if label := pt.label(); label != "" {
				group += "@" + label
			}
			base := sanitize(strings.ReplaceAll(group, " ", ","))
			for r := 0; r < repeats; r++ {
				id := base
				if repeats > 1 {
					id = fmt.Sprintf("%s__r%d", base, r)
				}
				units = append(units, unit{exp: e, point: pt, replica: r, group: group, id: id})
			}
		}
	}
	return units
}

// buildOutput renders one run's artifacts in memory: the CSV with the
// schema the manifest records for it, the log (rendered table), and the
// experiment's JSON artifacts.
func buildOutput(u unit, rs *experiments.ResultSet, wall time.Duration) (*unitOutput, error) {
	out := &unitOutput{}

	schema := rs.Table.Schema(u.exp.Units...)
	var csvBuf bytes.Buffer
	if err := rs.Table.RenderCSV(&csvBuf); err != nil {
		return nil, fmt.Errorf("%s: rendering CSV: %w", u.id, err)
	}
	out.csv = "csv/" + u.id + ".csv"
	out.schema = schema
	out.files = append(out.files, namedFile{out.csv, csvBuf.Bytes()})

	var logBuf bytes.Buffer
	fmt.Fprintf(&logBuf, "experiment: %s\n", rs.Experiment)
	if label := u.point.label(); label != "" {
		fmt.Fprintf(&logBuf, "point:      %s\n", label)
	}
	fmt.Fprintf(&logBuf, "replica:    %d\n\n", u.replica)
	if err := rs.Table.Render(&logBuf); err != nil {
		return nil, err
	}
	logPath := "logs/" + u.id + ".log"
	out.files = append(out.files, namedFile{logPath, logBuf.Bytes()})

	seen := map[string]int{}
	for _, a := range rs.Artifacts {
		name := a.Name
		seen[name]++
		if n := seen[name]; n > 1 {
			name = fmt.Sprintf("%s-%d", name, n)
		}
		var buf bytes.Buffer
		if err := a.Render(&buf); err != nil {
			return nil, fmt.Errorf("%s: rendering artifact %s: %w", u.id, a.Name, err)
		}
		out.files = append(out.files, namedFile{"analysis/" + u.id + "." + name + ".json", buf.Bytes()})
	}

	paths := make([]string, len(out.files))
	for i, f := range out.files {
		paths[i] = f.path
	}
	out.record = RunRecord{
		Experiment:    rs.Experiment,
		Point:         u.point,
		Group:         u.group,
		Replica:       u.replica,
		Deterministic: u.exp.Deterministic,
		Files:         paths,
		Keys:          rs.Keys,
		WallMs:        float64(wall.Microseconds()) / 1000,
	}
	return out, nil
}

// summarySchema is the fixed schema of analysis/summary.csv, recorded in the
// manifest: a mean or deviation is a float even where every cell of a run
// reads as an integer.
var summarySchema = stats.Schema{
	{Name: "group", Type: stats.ColString},
	{Name: "key", Type: stats.ColString},
	{Name: "n", Type: stats.ColInt},
	{Name: "mean", Type: stats.ColFloat},
	{Name: "std", Type: stats.ColFloat},
	{Name: "min", Type: stats.ColFloat},
	{Name: "max", Type: stats.ColFloat},
}

// summaryFile aggregates every (group, key) metric across replicas into
// mean/std/min/max rows, sorted by group then key.
func summaryFile(runs []RunRecord) (namedFile, error) {
	type gk struct{ group, key string }
	values := map[gk][]float64{}
	for _, r := range runs { // submission order: replica order per group
		for k, v := range r.Keys {
			key := gk{r.Group, k}
			values[key] = append(values[key], v)
		}
	}
	keys := make([]gk, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].key < keys[j].key
	})
	tb := stats.NewTable("group", "key", "n", "mean", "std", "min", "max")
	for _, k := range keys {
		s := stats.Summarize(values[k])
		tb.Row(k.group, k.key, s.N, s.Mean, s.Std, s.Min, s.Max)
	}
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		return namedFile{}, err
	}
	return namedFile{"analysis/summary.csv", buf.Bytes()}, nil
}

// resolveDir picks the artifact directory: the explicit one (which must not
// already contain a manifest) or a fresh timestamped directory under root
// with a collision suffix.
func resolveDir(dir, root string, t time.Time) (string, error) {
	if dir != "" {
		if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
			return "", fmt.Errorf("pipeline: %s already holds a run (manifest.json exists)", dir)
		}
		return dir, os.MkdirAll(dir, 0o755)
	}
	if root == "" {
		root = "runs"
	}
	stamp := t.UTC().Format("20060102T150405Z")
	for i := 0; ; i++ {
		d := filepath.Join(root, stamp)
		if i > 0 {
			d = fmt.Sprintf("%s-%d", d, i+1)
		}
		if _, err := os.Stat(d); os.IsNotExist(err) {
			return d, os.MkdirAll(d, 0o755)
		}
	}
}

// writeFile writes one artifact, creating its parent directory.
func writeFile(dir string, f namedFile) error {
	path := filepath.Join(dir, filepath.FromSlash(f.path))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, f.data, 0o644)
}

// gitCommit resolves the commit to record: the override, else `git
// rev-parse HEAD`, else "unknown".
func gitCommit(override string) string {
	if override != "" {
		return override
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
