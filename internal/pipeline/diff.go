package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// RunRef identifies one side of a diff.
type RunRef struct {
	Dir       string `json:"dir"`
	Name      string `json:"name"`
	GitCommit string `json:"git_commit"`
	CreatedAt string `json:"created_at"`
}

// Delta is one metric's before/after pair.
type Delta struct {
	Before    float64 `json:"before"`
	After     float64 `json:"after"`
	ChangePct float64 `json:"change_pct"`
	// Deterministic marks metrics of deterministic experiments: any
	// non-zero delta on these is a real behavioural change, not host
	// noise.
	Deterministic bool `json:"deterministic"`
}

// DiffReport compares two artifact directories metric by metric.
type DiffReport struct {
	Description string `json:"description"`
	Before      RunRef `json:"before"`
	After       RunRef `json:"after"`
	// Changed counts deterministic metrics whose values differ — the
	// number a CI gate can assert to be zero across a no-change commit,
	// while host-dependent metrics (wall time, heap) drift freely.
	Changed int `json:"changed"`
	// Metrics maps "<group>/<key>" to its delta, for every metric present
	// on both sides (replica means).
	Metrics map[string]Delta `json:"metrics"`
	// Added and Removed list metric names present on only one side.
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// WriteJSON writes the report as deterministic indented JSON.
func (r *DiffReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// metric is one aggregated (group, key) value: the mean across replicas.
type metric struct {
	value float64
	det   bool
}

// metricsOf aggregates a manifest's run records into "<group>/<key>" means.
func metricsOf(m *Manifest) map[string]metric {
	type acc struct {
		sum float64
		n   int
		det bool
	}
	accs := map[string]*acc{}
	for _, r := range m.Runs {
		for k, v := range r.Keys {
			name := r.Group + "/" + k
			a := accs[name]
			if a == nil {
				a = &acc{det: r.Deterministic}
				accs[name] = a
			}
			a.sum += v
			a.n++
		}
	}
	out := make(map[string]metric, len(accs))
	for name, a := range accs {
		out[name] = metric{value: a.sum / float64(a.n), det: a.det}
	}
	return out
}

// Diff loads two artifact directories and compares their metrics: before is
// the baseline, after the candidate. Metrics are replica means keyed by
// "<group>/<key>"; the Changed count covers only deterministic experiments,
// so it is stable across hosts.
func Diff(beforeDir, afterDir string) (*DiffReport, error) {
	mb, err := readManifest(beforeDir)
	if err != nil {
		return nil, err
	}
	ma, err := readManifest(afterDir)
	if err != nil {
		return nil, err
	}
	before, after := metricsOf(mb), metricsOf(ma)

	rep := &DiffReport{
		Description: fmt.Sprintf("pipeline diff: %s@%s vs %s@%s",
			mb.Name, shortCommit(mb.GitCommit), ma.Name, shortCommit(ma.GitCommit)),
		Before:  RunRef{Dir: beforeDir, Name: mb.Name, GitCommit: mb.GitCommit, CreatedAt: mb.CreatedAt},
		After:   RunRef{Dir: afterDir, Name: ma.Name, GitCommit: ma.GitCommit, CreatedAt: ma.CreatedAt},
		Metrics: map[string]Delta{},
	}
	for name, b := range before {
		a, ok := after[name]
		if !ok {
			rep.Removed = append(rep.Removed, name)
			continue
		}
		d := Delta{Before: b.value, After: a.value, Deterministic: b.det && a.det}
		if b.value != 0 {
			d.ChangePct = (a.value - b.value) / b.value * 100
		}
		rep.Metrics[name] = d
		if d.Deterministic && b.value != a.value {
			rep.Changed++
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			rep.Added = append(rep.Added, name)
		}
	}
	sort.Strings(rep.Added)
	sort.Strings(rep.Removed)
	return rep, nil
}

func shortCommit(c string) string {
	if len(c) > 12 {
		return c[:12]
	}
	return c
}
