package core

import (
	"slices"
	"testing"

	"mermaid/internal/machine"
	"mermaid/internal/router"
	"mermaid/internal/stats"
)

// TestReportPathsUnique requires every set of a report to name each of its
// metrics and subsets once: a metric's path names its history column and
// its Prometheus series, and Set.Put appends without looking for the name.
// It renders the report of every detailed preset with every application the
// preset runs (presetApps, the DSM cluster's Jacobi among them), a
// task-level virtual cut-through torus and a faulted grid.
func TestReportPathsUnique(t *testing.T) {
	type tc struct {
		name string
		spec RunSpec
		edit func(*machine.Config)
	}
	var cases []tc
	for _, preset := range PresetNames() {
		for _, app := range presetApps[preset] {
			cells := 64
			if preset == "t805-8x8" {
				cells = 128
			}
			cases = append(cases, tc{name: preset + "/" + app,
				spec: RunSpec{Preset: preset, App: app, Iters: 2, Cells: cells, Dim: 16, Rounds: 4, Bytes: 1024}})
		}
	}
	cases = append(cases,
		tc{name: "torus:4x4/vct", spec: RunSpec{Topology: "torus:4x4", Workload: []byte(`{"Level": "task", "Seed": 3, "Iterations": 3,
			"Phases": [{"Duration": 2000, "CV": 0.1, "Comm": {"Pattern": "exchange", "Bytes": 1024}}]}`)},
			edit: func(c *machine.Config) { c.Network.Router.Switching = router.VirtualCutThrough }},
		tc{name: "t805-2x2/jacobi/faults", spec: RunSpec{Preset: "t805-2x2", App: "jacobi", Iters: 5, Cells: 64,
			Faults: []byte(`{"links": [{"a": 0, "b": 1, "from": 2000, "to": 30000}], "nodes": [{"node": 1, "from": 5000, "to": 9000}],
				"noise": [{"a": -1, "b": -1, "drop": 0.02, "corrupt": 0.05}], "retrans": {"timeout": 200, "backoff": 2, "maxRetries": 16}}`)}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, drive, err := c.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if c.edit != nil {
				c.edit(&cfg)
			}
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := drive(m)
			if err != nil {
				t.Fatal(err)
			}
			if c.spec.Faults != nil && res.Stats.Lookup("faults") == nil {
				t.Fatal("the faulted run's report has no faults set")
			}
			checkNamesUnique(t, res.Stats, res.Stats.Name)
		})
	}
}

// checkNamesUnique fails the test for every set below s, path naming it,
// that holds two metrics or two subsets of one name.
func checkNamesUnique(t *testing.T, s *stats.Set, path string) {
	t.Helper()
	var metrics, subsets []string
	for _, m := range s.Metrics {
		if slices.Contains(metrics, m.Name) {
			t.Errorf("%s: metric %q twice", path, m.Name)
		}
		metrics = append(metrics, m.Name)
	}
	for _, sub := range s.Subsets {
		if slices.Contains(subsets, sub.Name) {
			t.Errorf("%s: subset %q twice", path, sub.Name)
		}
		subsets = append(subsets, sub.Name)
		checkNamesUnique(t, sub, path+"/"+sub.Name)
	}
}
