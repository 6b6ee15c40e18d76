package experiments

import (
	"fmt"

	"mermaid/internal/core"
	"mermaid/internal/farm"
	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/trace"
)

// driver runs a workload on a built machine: the second half of what
// core.RunSpec.Resolve returns.
type driver = func(*machine.Machine) (*machine.Result, error)

// point is one run of a study: a machine configuration and the driver that
// runs its workload, plus the observer the study attaches (a bottleneck
// analysis). name labels the run in errors.
type point struct {
	name  string
	cfg   machine.Config
	drive driver
	opts  []core.Option
}

// run builds the point's machine and drives it. It is the one place the
// experiments build machines.
func (p point) run() (*machine.Result, error) {
	wb, err := core.New(p.cfg, p.opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	m, err := wb.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	res, err := p.drive(m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return res, nil
}

// runPoints runs the points on the spec's farm pool and returns their
// results in point order, so a study's table is the same for any worker
// count.
func runPoints(s Spec, pts []point) ([]*machine.Result, error) {
	jobs := make([]farm.Job, len(pts))
	for i, p := range pts {
		jobs[i] = farm.Job{Name: p.name, Run: func(rc *farm.RunContext) (any, error) {
			res, err := p.run()
			if err != nil {
				return nil, err
			}
			rc.ObserveSim(res.Cycles, res.Events)
			return res, nil
		}}
	}
	rep := farm.New(s.Workers).Run(jobs)
	if err := rep.Err(); err != nil {
		return nil, err
	}
	out := make([]*machine.Result, len(pts))
	for i, v := range rep.Values() {
		out[i] = v.(*machine.Result)
	}
	return out, nil
}

// runDesc drives a machine with a stochastic description.
func runDesc(d stochastic.Desc) driver {
	return func(m *machine.Machine) (*machine.Result, error) { return m.RunStochastic(d) }
}

// runProgram drives a machine with an instrumented program.
func runProgram(p *trace.Program) driver {
	return func(m *machine.Machine) (*machine.Result, error) { return m.RunProgram(p) }
}

// runOps drives a machine with one operation list per processor.
func runOps(streams ...[]ops.Op) driver {
	return func(m *machine.Machine) (*machine.Result, error) {
		srcs := make([]trace.Source, len(streams))
		for i, s := range streams {
			srcs[i] = trace.FromOps(s)
		}
		return m.Run(srcs)
	}
}

// output collects an experiment's table, keys and artifacts, and the first
// error met while writing them.
type output struct {
	rs  ResultSet
	err error
}

func newOutput(header ...string) *output {
	return &output{rs: ResultSet{Table: stats.NewTable(header...), Keys: Keys{}}}
}

func (o *output) row(cells ...any) { o.rs.Table.Row(cells...) }

// key writes the named key. Every experiment writes its keys here, so two
// points whose key names format alike are an error naming the key, not one
// point's value silently standing for both.
func (o *output) key(name string, v float64) {
	if _, dup := o.rs.Keys[name]; dup {
		o.fail(fmt.Errorf("key %q written twice", name))
	}
	o.rs.Keys[name] = v
}

// metric reads the named metric of a report set; a missing set or metric
// is an error.
func (o *output) metric(set *stats.Set, name string) float64 {
	if set == nil {
		o.fail(fmt.Errorf("no report set holds %q", name))
		return 0
	}
	v, ok := set.Get(name)
	if !ok {
		o.fail(fmt.Errorf("report set %q has no metric %q", set.Name, name))
	}
	return v
}

func (o *output) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// done returns the result set, or the first error met.
func (o *output) done() (*ResultSet, error) {
	if o.err != nil {
		return nil, o.err
	}
	return &o.rs, nil
}

// hierarchy is the named set of node 0's memory-hierarchy report: a cache
// ("node0.cpu0.L1") or the interconnect ("bus", "crossbar").
func hierarchy(r *machine.Result, name string) *stats.Set {
	return r.Stats.Lookup("node0", "memory-hierarchy", name)
}

// network is the network's report set, named after its topology.
func network(r *machine.Result) *stats.Set { return r.Stats.Prefixed("network ") }
