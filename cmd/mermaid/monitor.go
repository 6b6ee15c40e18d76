package main

import (
	"fmt"
	"io"
	"strings"

	"mermaid/internal/analysis"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
)

// defaultSampleEvery is the sampling interval when -metrics or -monitor-addr
// is on and -monitor does not name one.
const defaultSampleEvery = 10000

// sparkline is one row of the -monitor view: a series derived from registry
// metrics on every sampling tick.
type sparkline struct {
	stats.Series
	read func() float64
}

// sparklines is the -monitor view — the run-time half of the environment's
// visualisation support (§3): mean node-bus utilisation, mean link
// utilisation, messages delivered and kernel events, whichever of them the
// machine registers. It keeps history for these few series only, not for
// every metric of the registry.
type sparklines []*sparkline

func newSparklines(reg *probe.Registry) sparklines {
	var sp sparklines
	add := func(label string, read func() float64) {
		sp = append(sp, &sparkline{Series: stats.Series{Name: label}, read: read})
	}
	var buses []*probe.Entry
	for _, e := range reg.Entries() {
		if strings.HasPrefix(e.Name, "node") && strings.HasSuffix(e.Name, ".bus.utilization") {
			buses = append(buses, e)
		}
	}
	if len(buses) > 0 {
		add("bus utilization", func() float64 {
			var sum float64
			for _, e := range buses {
				sum += e.Read()
			}
			return sum / float64(len(buses))
		})
	}
	for _, row := range [][2]string{
		{"link utilization", "net.link-utilization.avg"},
		{"messages", "net.messages"},
		{"kernel events", "kernel.events"},
	} {
		if e := reg.Lookup(row[1]); e != nil {
			add(row[0], e.Read)
		}
	}
	return sp
}

func (sp sparklines) sample(at pearl.Time) {
	for _, s := range sp {
		s.Append(int64(at), s.read())
	}
}

// render writes each series as a sparkline with summary statistics.
func (sp sparklines) render(w io.Writer) error {
	for _, s := range sp {
		min, mean, max := s.Summary()
		if _, err := fmt.Fprintf(w, "%-18s %s  (min %s, mean %s, max %s, %d samples)\n",
			s.Name, stats.Sparkline(s.V),
			stats.FormatFloat(min), stats.FormatFloat(mean), stats.FormatFloat(max), s.Len()); err != nil {
			return err
		}
	}
	return nil
}

// observe attaches every requested observer of a single run to the run's one
// sampling chain: the sparklines (monitor > 0, which is also the interval),
// the -metrics CSV history (read back with reg.WriteCSV) and the
// -monitor-addr scope (nil when off). It returns the sparkline view and the
// function that takes the end-of-run sample; with no observer requested no
// chain is armed.
func observe(k *pearl.Kernel, reg *probe.Registry, monitor pearl.Time, csv bool, scope *analysis.Scope) (sparklines, func(end pearl.Time), error) {
	var view sparklines
	var consumers []func(pearl.Time)
	every := pearl.Time(defaultSampleEvery)
	if monitor > 0 {
		every = monitor
		view = newSparklines(reg)
		consumers = append(consumers, view.sample)
	}
	if csv {
		consumers = append(consumers, reg.Sample)
	}
	if scope != nil {
		consumers = append(consumers, func(pearl.Time) { scope.Sample(k, reg) })
	}
	finish, err := reg.StartSampler(k, every, consumers...)
	return view, finish, err
}
