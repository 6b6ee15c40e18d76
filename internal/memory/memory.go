// Package memory models the main memory (DRAM) component of the single-node
// architecture template (Fig. 3a of the paper). As everywhere in Mermaid,
// only timing matters: the memory stores no data, so a simulated gigabyte
// costs nothing on the host.
package memory

import (
	"fmt"

	"mermaid/internal/analysis"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
)

// Config parameterises the DRAM model. Validate writes the default in place
// of every zero field, so a validated configuration is the one the model
// runs.
type Config struct {
	// ReadLatency and WriteLatency are the fixed access latencies in cycles
	// before the first byte moves.
	ReadLatency  pearl.Time
	WriteLatency pearl.Time
	// BytesPerCycle is the transfer bandwidth of the memory interface; zero
	// means 8.
	BytesPerCycle int
	// Ports is the number of concurrent accesses the memory sustains;
	// additional requests queue (FIFO). Zero means 1.
	Ports int
}

// Validate fills the defaults of zero fields and refuses negative values.
func (c *Config) Validate() error {
	if c.ReadLatency < 0 {
		return fmt.Errorf("memory: negative ReadLatency %d", c.ReadLatency)
	}
	if c.WriteLatency < 0 {
		return fmt.Errorf("memory: negative WriteLatency %d", c.WriteLatency)
	}
	for _, f := range []struct {
		name string
		v    *int
		def  int
	}{{"BytesPerCycle", &c.BytesPerCycle, 8}, {"Ports", &c.Ports, 1}} {
		switch {
		case *f.v < 0:
			return fmt.Errorf("memory: negative %s %d", f.name, *f.v)
		case *f.v == 0:
			*f.v = f.def
		}
	}
	return nil
}

// DRAM is a simple main-memory timing model.
type DRAM struct {
	cfg   Config
	k     *pearl.Kernel
	ports *pearl.Resource

	reads  stats.Counter
	writes stats.Counter
	bytes  stats.Counter

	tl    *probe.Timeline // nil when no probe is attached
	track probe.Track
	names [2]probe.Name // of a read and of a write

	idle []*call // see call
}

// New creates a DRAM on kernel k. pb and col may be nil (no
// instrumentation); with a timeline attached the DRAM emits one
// "read"/"write" span per access on its track; with a collector attached the port pool contributes busy/wait accounting to the
// bottleneck analysis. cfg is taken as given: BytesPerCycle and Ports must
// be positive, as Validate leaves them.
func New(k *pearl.Kernel, name string, cfg Config, pb *probe.Probe, col *analysis.Collector) *DRAM {
	d := &DRAM{cfg: cfg, k: k, ports: k.NewResource(name+".ports", cfg.Ports)}
	col.Resource("dram", d.ports)
	if tl := pb.Timeline(); tl != nil {
		d.tl = tl
		d.track = tl.Track(name)
		d.names = [2]probe.Name{tl.Name("read"), tl.Name("write")}
	}
	return d
}

// accessTime returns the service time for a transfer of size bytes,
// excluding queueing.
func (d *DRAM) accessTime(write bool, size uint64) pearl.Time {
	lat := d.cfg.ReadLatency
	if write {
		lat = d.cfg.WriteLatency
	}
	bpc := uint64(d.cfg.BytesPerCycle)
	return lat + pearl.Time((size+bpc-1)/bpc)
}

// Access is a read or write of size bytes, port queueing included, as a
// resumable call (see bus.Bus.Acquire for the protocol): call it with *pc
// zero from a pearl.Chain step function and again after each Step it returns
// has been served, until it returns Done.
func (d *DRAM) Access(write bool, size uint64, pc *int) pearl.Step {
	switch *pc {
	case 0:
		if !d.ports.TryAcquire() {
			*pc = 1
			return pearl.Step{Acquire: d.ports}
		}
		fallthrough
	case 1:
		*pc = 2
		return pearl.Step{Hold: d.accessTime(write, size)}
	}
	d.ports.Release()
	if d.tl != nil {
		// The span covers port ownership only, not queueing.
		name, now := d.names[0], d.k.Now()
		if write {
			name = d.names[1]
		}
		d.tl.NamedSpan(d.track, name, now-d.accessTime(write, size), now)
	}
	if write {
		d.writes.Inc()
	} else {
		d.reads.Inc()
	}
	d.bytes.Add(size)
	*pc = 0
	return pearl.Step{Done: true}
}

// Read blocks the calling process for a read of size bytes at addr,
// including any port queueing.
func (d *DRAM) Read(p *pearl.Process, addr, size uint64) { d.access(p, false, size) }

func (d *DRAM) access(p *pearl.Process, write bool, size uint64) {
	var c *call
	if n := len(d.idle); n > 0 {
		c, d.idle = d.idle[n-1], d.idle[:n-1]
	} else {
		c = &call{}
		c.step = func() pearl.Step { return d.Access(c.write, c.size, &c.pc) }
	}
	c.write, c.size = write, size
	p.HoldWhile(c.step)
	d.idle = append(d.idle, c)
}

// call is the state of one Read call across its waits. The DRAM
// keeps the records of finished calls for the next ones, so a call allocates
// nothing.
type call struct {
	step  func() pearl.Step
	write bool
	size  uint64
	pc    int
}

// Stats reports the memory's counters and utilisation.
func (d *DRAM) Stats() *stats.Set {
	s := stats.NewSet("memory")
	s.PutUint("reads", d.reads.Value(), "")
	s.PutUint("writes", d.writes.Value(), "")
	s.PutUint("bytes", d.bytes.Value(), "B")
	s.Put("utilization", d.ports.Utilization(), "")
	s.Put("avg queue wait", d.ports.AvgWait(), "cyc")
	return s
}
