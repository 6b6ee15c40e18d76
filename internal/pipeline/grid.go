// Package pipeline is the paper-grade experiment pipeline of the workbench:
// a declarative grid specification (experiments x parameter sweeps x
// repeats) executed through the simulation farm into a timestamped artifact
// directory, with CSVs, per-run JSON artifacts, grouped summaries, and a
// manifest recording the grid, the git commit, each CSV's column schema
// and a content hash of every artifact. Two artifact directories can be diffed
// into a before/after JSON delta report (Diff), and any directory can be
// re-validated against its own manifest (Validate).
//
// The pipeline inherits the workbench's determinism contract: for
// deterministic experiments the csv/, logs/ and analysis/ trees — and
// therefore the manifest's content hashes — are byte-identical for any
// worker count and on any host.
package pipeline

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"mermaid/internal/experiments"
)

// StringList is a JSON field that accepts either a single string or an array
// of strings — grid sweeps with one value don't need array brackets.
type StringList []string

// UnmarshalJSON implements the scalar-or-array decoding.
func (l *StringList) UnmarshalJSON(data []byte) error {
	var one string
	if err := json.Unmarshal(data, &one); err == nil {
		*l = StringList{one}
		return nil
	}
	var many []string
	if err := json.Unmarshal(data, &many); err != nil {
		return fmt.Errorf("want a string or an array of strings: %w", err)
	}
	*l = StringList(many)
	return nil
}

// GridExperiment selects one registered experiment and the parameter grid to
// sweep it over. Every combination (cross product) of the grid values is one
// design point; each point runs `repeats` times.
type GridExperiment struct {
	// Name is the registry name of the experiment.
	Name string `json:"name"`
	// Repeats overrides the grid-level repeat count for this experiment
	// (0 = inherit).
	Repeats int `json:"repeats,omitempty"`
	// Grid maps declared sweep-parameter names to the list of values to
	// enumerate. Each value is passed verbatim as the parameter's override
	// (and may itself be a comma-separated list the experiment sweeps
	// internally). An empty grid runs the experiment once at its defaults.
	Grid map[string]StringList `json:"grid,omitempty"`
}

// GridSpec is the declarative description of a pipeline run: which
// experiments, over which parameter grids, how often, and how.
type GridSpec struct {
	// Name labels the run in the manifest and diff reports.
	Name string `json:"name"`
	// Seed is the farm base seed per-run seeds are derived from (recorded
	// in the manifest; deterministic experiments self-seed and ignore it).
	Seed uint64 `json:"seed,omitempty"`
	// Repeats is the default number of recorded replicas per design point
	// (0 or 1 = one).
	Repeats int `json:"repeats,omitempty"`
	// Experiments are the experiments to run, in order.
	Experiments []GridExperiment `json:"experiments"`
}

// ParseGrid decodes and validates a grid specification: experiment names
// must be registered, grid keys must be declared sweep parameters, counts
// must be non-negative. Unknown JSON fields are rejected — a typo in a grid
// file must not silently drop a sweep.
func ParseGrid(data []byte) (*GridSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var g GridSpec
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("pipeline: parsing grid: %w", err)
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// validate checks the grid against the experiment registry.
func (g *GridSpec) validate() error {
	if g.Name == "" {
		return fmt.Errorf("pipeline: grid needs a name")
	}
	if len(g.Experiments) == 0 {
		return fmt.Errorf("pipeline: grid %q lists no experiments", g.Name)
	}
	if g.Repeats < 0 {
		return fmt.Errorf("pipeline: grid %q: repeats must be non-negative", g.Name)
	}
	for _, ge := range g.Experiments {
		e, ok := experiments.ByName(ge.Name)
		if !ok {
			return fmt.Errorf("pipeline: grid %q: unknown experiment %q", g.Name, ge.Name)
		}
		if ge.Repeats < 0 {
			return fmt.Errorf("pipeline: grid %q: experiment %s: negative repeats", g.Name, ge.Name)
		}
		for param, values := range ge.Grid {
			if _, ok := e.Sweep[param]; !ok {
				return fmt.Errorf("pipeline: grid %q: experiment %s does not declare sweep parameter %q", g.Name, ge.Name, param)
			}
			if len(values) == 0 {
				return fmt.Errorf("pipeline: grid %q: experiment %s: sweep parameter %q has no values", g.Name, ge.Name, param)
			}
		}
	}
	return nil
}

// Point is one design point of a grid experiment: a concrete value per swept
// parameter, passed as the experiment's Spec.Sweep.
type Point map[string]string

// label renders the point as "k=v k2=v2" with sorted keys; empty for the
// defaults-only point.
func (p Point) label() string {
	if len(p) == 0 {
		return ""
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + p[k]
	}
	return strings.Join(parts, " ")
}

// points expands the experiment's grid into its cross product, in
// deterministic order (sorted parameter names, values in declaration
// order). An empty grid yields the single defaults point.
func (ge GridExperiment) points() []Point {
	if len(ge.Grid) == 0 {
		return []Point{nil}
	}
	params := make([]string, 0, len(ge.Grid))
	for p := range ge.Grid {
		params = append(params, p)
	}
	sort.Strings(params)
	pts := []Point{{}}
	for _, param := range params {
		var next []Point
		for _, pt := range pts {
			for _, v := range ge.Grid[param] {
				np := Point{}
				for k, val := range pt {
					np[k] = val
				}
				np[param] = v
				next = append(next, np)
			}
		}
		pts = next
	}
	return pts
}

// sanitize maps a run identifier component to a filesystem-safe string:
// anything outside [A-Za-z0-9._=+-] becomes '-'.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '=', r == '+', r == '-':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	return b.String()
}
