// Package memory models the main memory (DRAM) component of the single-node
// architecture template (Fig. 3a of the paper). As everywhere in Mermaid,
// only timing matters: the memory stores no data, so a simulated gigabyte
// costs nothing on the host.
package memory

import (
	"mermaid/internal/analysis"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
)

// Config parameterises the DRAM model.
type Config struct {
	// ReadLatency and WriteLatency are the fixed access latencies in cycles
	// before the first byte moves.
	ReadLatency  pearl.Time
	WriteLatency pearl.Time
	// BytesPerCycle is the transfer bandwidth of the memory interface.
	BytesPerCycle int
	// Ports is the number of concurrent accesses the memory sustains;
	// additional requests queue (FIFO).
	Ports int
}

// DefaultConfig returns a generic DRAM: 70 ns at 66 MHz ≈ 5-cycle access,
// 8 bytes/cycle, single ported. Presets in the machine package override this
// with calibrated values.
func DefaultConfig() Config {
	return Config{ReadLatency: 5, WriteLatency: 5, BytesPerCycle: 8, Ports: 1}
}

func (c *Config) sanitize() {
	if c.BytesPerCycle <= 0 {
		c.BytesPerCycle = 8
	}
	if c.Ports <= 0 {
		c.Ports = 1
	}
	if c.ReadLatency < 0 {
		c.ReadLatency = 0
	}
	if c.WriteLatency < 0 {
		c.WriteLatency = 0
	}
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

	idle []*call // see call
}

// New creates a DRAM on kernel k. pb and col may be nil (no
// instrumentation); with a probe attached the DRAM registers its access
// counters and emits one "read"/"write" span per access on its track; with a
// collector attached the port pool contributes busy/wait accounting to the
// bottleneck analysis.
func New(k *pearl.Kernel, name string, cfg Config, pb *probe.Probe, col *analysis.Collector) *DRAM {
	cfg.sanitize()
	d := &DRAM{cfg: cfg, k: k, ports: k.NewResource(name+".ports", cfg.Ports)}
	col.Resource("dram", d.ports)
	reg := pb.Registry()
	reg.Counter(name+".reads", &d.reads)
	reg.Counter(name+".writes", &d.writes)
	reg.Counter(name+".bytes", &d.bytes)
	reg.Gauge(name+".utilization", "", d.ports.Utilization)
	if tl := pb.Timeline(); tl != nil {
		d.tl = tl
		d.track = tl.Track(name)
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
// zero from a pearl.Process.HoldWhile step and again after each Step it
// returns has been served, until it returns Done.
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
		name, now := "read", d.k.Now()
		if write {
			name = "write"
		}
		d.tl.Span(d.track, name, now-d.accessTime(write, size), now)
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

// Write blocks the calling process for a write of size bytes at addr.
func (d *DRAM) Write(p *pearl.Process, addr, size uint64) { d.access(p, true, size) }

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

// call is the state of one Read or Write call across its waits. The DRAM
// keeps the records of finished calls for the next ones, so a call allocates
// nothing.
type call struct {
	step  func() pearl.Step
	write bool
	size  uint64
	pc    int
}

// Reads, Writes and Bytes expose the access counters.
func (d *DRAM) Reads() uint64  { return d.reads.Value() }
func (d *DRAM) Writes() uint64 { return d.writes.Value() }
func (d *DRAM) Bytes() uint64  { return d.bytes.Value() }

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
