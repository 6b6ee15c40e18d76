package analysis

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// CPUDecomp is one processor's virtual-time decomposition. The four classes
// partition the run: Compute + MemStall + CommBlocked + Idle == Cycles of
// the report, exactly, for every CPU.
type CPUDecomp struct {
	Name        string `json:"name"`
	Compute     int64  `json:"compute"`
	MemStall    int64  `json:"memStall"`
	CommBlocked int64  `json:"commBlocked"`
	Idle        int64  `json:"idle"`
}

// ResourceRow is one shared resource's utilization and queue-wait summary.
type ResourceRow struct {
	Kind        string  `json:"kind"`
	Name        string  `json:"name"`
	Capacity    int     `json:"capacity"`
	Busy        int64   `json:"busy"`
	Wait        int64   `json:"wait"`
	Acquires    uint64  `json:"acquires"`
	Utilization float64 `json:"utilization"`
	AvgWait     float64 `json:"avgWait"`
}

// WaitRow aggregates kernel-traced blocked intervals by block reason.
type WaitRow struct {
	Reason string `json:"reason"`
	Cycles int64  `json:"cycles"`
	Count  uint64 `json:"count"`
}

// PathSegment attributes part of the end-to-end runtime to one component.
// Segments of one report sum exactly to the run length.
type PathSegment struct {
	Component string  `json:"component"`
	Kind      string  `json:"kind"` // compute | send | recv wait | network | idle
	Cycles    int64   `json:"cycles"`
	Pct       float64 `json:"pct"`
}

// Bottleneck is one ranked entry of the summary.
type Bottleneck struct {
	Rank      int     `json:"rank"`
	Component string  `json:"component"`
	Score     float64 `json:"score"`
	Detail    string  `json:"detail"`
}

// Report is the complete bottleneck analysis of one run. All fields are
// derived from virtual-time measurements only, so a report is deterministic:
// the same configuration and workload produce a byte-identical report at any
// farm worker count.
type Report struct {
	Machine      string        `json:"machine"`
	Cycles       int64         `json:"cycles"`
	CPUs         []CPUDecomp   `json:"cpus"`
	Resources    []ResourceRow `json:"resources"`
	Waits        []WaitRow     `json:"waits"`
	CriticalPath []PathSegment `json:"criticalPath"`
	Bottlenecks  []Bottleneck  `json:"bottlenecks"`
}

// topN is how many entries the ranked bottleneck summary keeps.
const topN = 8

// round6 quantises derived ratios so the JSON export is stable and readable;
// the underlying integer cycle counts stay exact.
func round6(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}

// Analyze folds everything the collector saw into a report for a run of the
// given length. Call after the simulation has completed.
func (c *Collector) Analyze(total pearl.Time) *Report {
	if c == nil {
		return nil
	}
	r := &Report{Machine: c.machine, Cycles: int64(total)}

	cpus := make([]cpuEntry, len(c.cpus))
	copy(cpus, c.cpus)
	slices.SortStableFunc(cpus, func(a, b cpuEntry) int { return cmp.Compare(a.index, b.index) })
	for _, e := range cpus {
		s := e.sample()
		d := CPUDecomp{
			Name:        e.name,
			Compute:     int64(s.Compute),
			MemStall:    int64(s.MemStall),
			CommBlocked: int64(s.CommBlocked),
		}
		// The identity that makes the decomposition trustworthy: idle is the
		// exact remainder, so the four classes always sum to the run length.
		d.Idle = int64(total) - d.Compute - d.MemStall - d.CommBlocked
		r.CPUs = append(r.CPUs, d)
	}

	for _, e := range c.resources {
		s := e.sample()
		row := ResourceRow{
			Kind:     e.kind,
			Name:     e.name,
			Capacity: e.capacity,
			Busy:     int64(s.Busy),
			Wait:     int64(s.Wait),
			Acquires: s.Acquires,
		}
		if total > 0 && e.capacity > 0 {
			row.Utilization = round6(float64(s.Busy) / (float64(e.capacity) * float64(total)))
		}
		if s.Acquires > 0 {
			row.AvgWait = round6(float64(s.Wait) / float64(s.Acquires))
		}
		r.Resources = append(r.Resources, row)
	}

	// Reasons are named here, and reasons of one text (resources of one
	// name) share a row; a reason that never waited has none.
	row := make(map[string]int)
	for i, b := range c.blocked {
		if b.count == 0 {
			continue
		}
		text := c.k.ReasonText(pearl.Reason(i))
		j, ok := row[text]
		if !ok {
			j = len(r.Waits)
			row[text] = j
			r.Waits = append(r.Waits, WaitRow{Reason: text})
		}
		r.Waits[j].Cycles += int64(b.cycles)
		r.Waits[j].Count += b.count
	}
	slices.SortStableFunc(r.Waits, func(a, b WaitRow) int {
		return cmp.Or(cmp.Compare(b.Cycles, a.Cycles), strings.Compare(a.Reason, b.Reason))
	})

	r.CriticalPath = c.criticalPath(total)
	r.Bottlenecks = r.rank()
	return r
}

// rank builds the top-N bottleneck summary from the report's own tables:
// shared resources score by utilization plus their queueing share of the run,
// CPUs by the fraction of the run they were not computing. Only the entries
// that make the summary get their detail text.
func (r *Report) rank() []Bottleneck {
	total := float64(r.Cycles)
	if total <= 0 {
		total = 1
	}
	// A candidate is a resource row (index below len(r.Resources)) or a CPU.
	type candidate struct {
		component string
		score     float64
		row       int
	}
	cand := make([]candidate, 0, len(r.Resources)+len(r.CPUs))
	for i, res := range r.Resources {
		cand = append(cand, candidate{res.Name, round6(res.Utilization + float64(res.Wait)/total), i})
	}
	for i, d := range r.CPUs {
		cand = append(cand, candidate{d.Name, round6(float64(d.MemStall+d.CommBlocked) / total), len(r.Resources) + i})
	}
	slices.SortStableFunc(cand, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(a.component, b.component))
	})
	if len(cand) > topN {
		cand = cand[:topN]
	}
	var out []Bottleneck
	for i, c := range cand {
		b := Bottleneck{Rank: i + 1, Component: c.component, Score: c.score}
		if c.row < len(r.Resources) {
			res := &r.Resources[c.row]
			b.Detail = fmt.Sprintf("%s at %.1f%% utilization, %.1f cyc avg wait over %d acquires",
				res.Kind, res.Utilization*100, res.AvgWait, res.Acquires)
		} else {
			d := &r.CPUs[c.row-len(r.Resources)]
			stalled := float64(d.MemStall+d.CommBlocked) / total
			b.Detail = fmt.Sprintf("cpu stalled %.1f%% (%.1f%% memory, %.1f%% communication), computing %.1f%%",
				stalled*100, float64(d.MemStall)/total*100,
				float64(d.CommBlocked)/total*100, float64(d.Compute)/total*100)
		}
		out = append(out, b)
	}
	return out
}

// WriteJSON writes the report as deterministic, indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Render writes the human-readable bottleneck section appended to the text
// report.
func (r *Report) Render(w io.Writer) error {
	if r == nil {
		return nil
	}
	total := float64(r.Cycles)
	if total <= 0 {
		total = 1
	}
	fmt.Fprintf(w, "bottleneck analysis (%d cycles)\n\n", r.Cycles)

	fmt.Fprintln(w, "per-CPU time decomposition:")
	tb := stats.NewTable("cpu", "compute", "mem-stall", "comm-blocked", "idle", "busy%")
	for _, d := range r.CPUs {
		tb.Row(d.Name, d.Compute, d.MemStall, d.CommBlocked, d.Idle,
			round6(float64(d.Compute+d.MemStall)/total*100))
	}
	if err := tb.Render(w); err != nil {
		return err
	}

	if len(r.Resources) > 0 {
		fmt.Fprintln(w, "\nshared resources:")
		rows := make([]ResourceRow, len(r.Resources))
		copy(rows, r.Resources)
		slices.SortStableFunc(rows, func(a, b ResourceRow) int {
			return cmp.Or(cmp.Compare(b.Utilization, a.Utilization), strings.Compare(a.Name, b.Name))
		})
		if len(rows) > 12 {
			rows = rows[:12]
		}
		tb = stats.NewTable("kind", "resource", "utilization", "avg wait", "acquires")
		for _, res := range rows {
			tb.Row(res.Kind, res.Name, res.Utilization, res.AvgWait, int64(res.Acquires))
		}
		if err := tb.Render(w); err != nil {
			return err
		}
	}

	if len(r.CriticalPath) > 0 {
		fmt.Fprintln(w, "\ncritical path:")
		tb = stats.NewTable("component", "kind", "cycles", "%")
		for _, seg := range r.CriticalPath {
			tb.Row(seg.Component, seg.Kind, seg.Cycles, seg.Pct)
		}
		if err := tb.Render(w); err != nil {
			return err
		}
	}

	if len(r.Bottlenecks) > 0 {
		fmt.Fprintln(w, "\ntop bottlenecks:")
		for _, b := range r.Bottlenecks {
			fmt.Fprintf(w, "  %d. %-24s %s\n", b.Rank, b.Component, b.Detail)
		}
	}
	return nil
}
