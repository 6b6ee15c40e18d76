package main

import (
	"fmt"
	"io"

	"mermaid/internal/analysis"
	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// defaultSampleEvery is the sampling interval when -metrics or -monitor-addr
// is on and -monitor does not name one.
const defaultSampleEvery = 10000

// sparklines is the -monitor view — the run-time half of the environment's
// visualisation support (§3): mean node-bus utilisation, mean link
// utilisation, messages delivered and kernel events, whichever of them the
// machine reports; a row the report has no metric for stays empty and is
// not rendered. It keeps history for these few series only, and reads them
// straight from the report tree.
type sparklines []stats.Series

func newSparklines() sparklines {
	return sparklines{{Name: "bus utilization"}, {Name: "link utilization"}, {Name: "messages"}, {Name: "kernel events"}}
}

// sample appends each row's value in the tick's report: the mean of the
// nodes' interconnect utilisations ("nodeN/memory-hierarchy/bus/utilization"
// or ".../crossbar/utilization"), the network set's "avg link utilization"
// and "messages", and the root's "events".
func (sp sparklines) sample(t analysis.Tick) {
	at, report := t.At, t.Report()
	var bus float64
	buses := 0
	for _, nd := range report.Subsets {
		for _, ic := range [...]string{"bus", "crossbar"} {
			if u, ok := nd.Lookup("memory-hierarchy", ic).Get("utilization"); ok {
				bus += u
				buses++
			}
		}
	}
	if buses > 0 {
		sp[0].Append(int64(at), bus/float64(buses))
	}
	net := report.Prefixed("network ")
	for row, m := range [...]struct {
		set  *stats.Set
		name string
	}{{net, "avg link utilization"}, {net, "messages"}, {report, "events"}} {
		if v, ok := m.set.Get(m.name); ok {
			sp[row+1].Append(int64(at), v)
		}
	}
}

// render writes each series as a sparkline with summary statistics.
func (sp sparklines) render(w io.Writer) error {
	for _, s := range sp {
		if s.Len() == 0 {
			continue
		}
		min, mean, max := s.Summary()
		if _, err := fmt.Fprintf(w, "%-18s %s  (min %s, mean %s, max %s, %d samples)\n",
			s.Name, stats.Sparkline(s.V),
			stats.FormatFloat(min), stats.FormatFloat(mean), stats.FormatFloat(max), s.Len()); err != nil {
			return err
		}
	}
	return nil
}

// observe attaches every requested observer of a single run to the machine's
// one sampling chain: the sparklines (monitor > 0, which is also the
// interval), the -metrics CSV history (csv, nil when off) and the
// -monitor-addr scope (nil when off). It returns the sparkline view and the
// function that hands the observers the run's report; with no observer
// requested no chain is armed.
func observe(m *machine.Machine, monitor pearl.Time, csv *stats.History, scope *analysis.Scope) (sparklines, func(*machine.Result), error) {
	var view sparklines
	var consumers []func(analysis.Tick)
	every := pearl.Time(defaultSampleEvery)
	if monitor > 0 {
		every = monitor
		view = newSparklines()
		consumers = append(consumers, view.sample)
	}
	if csv != nil {
		consumers = append(consumers, func(t analysis.Tick) { csv.Add(int64(t.At), t.Report()) })
	}
	if scope != nil {
		consumers = append(consumers, scope.Sample)
	}
	finish, err := m.StartSampler(every, consumers...)
	return view, finish, err
}
