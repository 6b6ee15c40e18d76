// Package bus models the node-internal interconnect of the single-node
// architecture template (Fig. 3a). The default is the paper's simple bus —
// a forwarding mechanism that carries out arbitration upon multiple accesses
// — but, as the paper notes, "changing the bus to a more complex structure
// ... can be done without too much remodelling effort": a banked crossbar
// is provided as the drop-in alternative, letting accesses to different
// memory banks proceed concurrently.
package bus

import (
	"fmt"

	"mermaid/internal/analysis"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
)

// Kind selects the interconnect structure.
type Kind string

// Interconnect kinds.
const (
	// KindBus is a single shared bus: one transaction at a time.
	KindBus Kind = "bus"
	// KindCrossbar is a banked crossbar: transactions to different banks
	// proceed concurrently; only same-bank accesses arbitrate.
	KindCrossbar Kind = "crossbar"
)

// Config parameterises the interconnect.
type Config struct {
	// Kind selects bus or crossbar; empty means bus.
	Kind Kind
	// Width is the data path width in bytes per cycle (per bank for the
	// crossbar).
	Width int
	// ArbitrationDelay is the fixed cost, in cycles, of winning arbitration
	// for one transaction.
	ArbitrationDelay pearl.Time
	// Banks is the number of crossbar banks (ignored for the bus).
	Banks int
	// InterleaveBytes sets the bank interleaving granularity.
	InterleaveBytes int
}

// DefaultConfig returns a generic 8-byte, 1-cycle-arbitration shared bus.
func DefaultConfig() Config { return Config{Kind: KindBus, Width: 8, ArbitrationDelay: 1} }

func (c *Config) sanitize() {
	if c.Kind == "" {
		c.Kind = KindBus
	}
	if c.Width <= 0 {
		c.Width = 8
	}
	if c.ArbitrationDelay < 0 {
		c.ArbitrationDelay = 0
	}
	if c.Banks <= 0 {
		c.Banks = 4
	}
	if c.InterleaveBytes <= 0 {
		c.InterleaveBytes = 64
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch c.Kind {
	case "", KindBus, KindCrossbar:
	default:
		return fmt.Errorf("bus: unknown interconnect kind %q", c.Kind)
	}
	return nil
}

// Bus is the node interconnect: a shared bus or a banked crossbar,
// distinguished only by how many independent channels back it.
type Bus struct {
	cfg   Config
	k     *pearl.Kernel
	chans []*pearl.Resource

	transactions stats.Counter
	bytes        stats.Counter

	// Timeline instrumentation (nil when no probe is attached): one track
	// per channel, with the start of the in-flight transaction.
	tl      *probe.Timeline
	tracks  []probe.Track
	started []pearl.Time

	idle []*call // see Transact
}

// New creates an interconnect on kernel k. pb and col may be nil (no
// instrumentation); with a probe attached the bus registers its traffic
// counters and emits one "txn" span per transaction and channel; with a
// collector attached every channel contributes busy/wait accounting to the
// bottleneck analysis.
func New(k *pearl.Kernel, name string, cfg Config, pb *probe.Probe, col *analysis.Collector) *Bus {
	cfg.sanitize()
	n := 1
	if cfg.Kind == KindCrossbar {
		n = cfg.Banks
	}
	b := &Bus{cfg: cfg, k: k}
	for i := 0; i < n; i++ {
		ch := k.NewResource(fmt.Sprintf("%s.%d", name, i), 1)
		b.chans = append(b.chans, ch)
		col.Resource("bus", ch)
	}
	reg := pb.Registry()
	reg.Counter(name+".transactions", &b.transactions)
	reg.Counter(name+".bytes", &b.bytes)
	reg.Gauge(name+".utilization", "", b.Utilization)
	if tl := pb.Timeline(); tl != nil {
		b.tl = tl
		b.tracks = make([]probe.Track, n)
		b.started = make([]pearl.Time, n)
		for i := range b.tracks {
			b.tracks[i] = tl.Track(fmt.Sprintf("%s.%d", name, i))
		}
	}
	return b
}

// Kind returns the interconnect kind.
func (b *Bus) Kind() Kind { return b.cfg.Kind }

// Broadcast reports whether the interconnect is a broadcast medium (needed
// by snoopy coherence protocols).
func (b *Bus) Broadcast() bool { return len(b.chans) == 1 }

// channelIndex maps an address to its arbitration domain.
func (b *Bus) channelIndex(addr uint64) int {
	if len(b.chans) == 1 {
		return 0
	}
	return int((addr / uint64(b.cfg.InterleaveBytes)) % uint64(len(b.chans)))
}

// transferTime returns the cycles needed to move size bytes across one
// channel, excluding arbitration and queueing.
func (b *Bus) transferTime(size uint64) pearl.Time {
	w := uint64(b.cfg.Width)
	return pearl.Time((size + w - 1) / w)
}

// Acquire wins arbitration for the channel serving addr, queueing behind
// earlier requesters, and charges the arbitration delay.
//
// Like Transfer and memory.DRAM.Access it blocks nobody: it is a resumable
// call, made from a pearl.Process.HoldWhile step function. The caller owns
// its program counter, zero before the first call, and calls again after each
// hold or resource wait the call returns has been served, until the call
// returns Done (and the counter is zero again).
func (b *Bus) Acquire(addr uint64, pc *int) pearl.Step {
	i := b.channelIndex(addr)
	switch *pc {
	case 0:
		if !b.chans[i].TryAcquire() {
			*pc = 1
			return pearl.Step{Acquire: b.chans[i]}
		}
		fallthrough
	case 1:
		if b.tl != nil {
			// The transaction span covers ownership: arbitration delay, any
			// body (snoop, memory access) and the transfer, until Release.
			b.started[i] = b.k.Now()
		}
		if b.cfg.ArbitrationDelay > 0 {
			*pc = 2
			return pearl.Step{Hold: b.cfg.ArbitrationDelay}
		}
	}
	b.transactions.Inc()
	*pc = 0
	return pearl.Step{Done: true}
}

// Transfer occupies the already-acquired channel for the transfer time of
// size bytes.
func (b *Bus) Transfer(size uint64, pc *int) pearl.Step {
	if t := b.transferTime(size); t > 0 && *pc == 0 {
		*pc = 1
		return pearl.Step{Hold: t}
	}
	b.bytes.Add(size)
	*pc = 0
	return pearl.Step{Done: true}
}

// Release hands the channel serving addr to the next waiter.
func (b *Bus) Release(addr uint64) {
	i := b.channelIndex(addr)
	b.chans[i].Release()
	if b.tl != nil {
		b.tl.Span(b.tracks[i], "txn", b.started[i], b.k.Now())
	}
}

// Transact performs a full acquire/transfer/release cycle for addr, blocking
// p meanwhile, plus an optional body executed while holding the channel.
func (b *Bus) Transact(p *pearl.Process, addr, size uint64, body func()) {
	var c *call
	if n := len(b.idle); n > 0 {
		c, b.idle = b.idle[n-1], b.idle[:n-1]
	} else {
		c = &call{b: b}
		c.step = c.run
	}
	c.addr, c.size, c.body, c.acquired = addr, size, body, false
	p.HoldWhile(c.step)
	c.body = nil
	b.idle = append(b.idle, c)
}

// call is the state of one Transact call across its waits. The bus keeps the
// records of finished calls for the next ones, so a call allocates nothing.
type call struct {
	b          *Bus
	step       func() pearl.Step // run, bound once
	addr, size uint64
	body       func()
	acquired   bool
	pc         int
}

func (c *call) run() pearl.Step {
	if !c.acquired {
		if s := c.b.Acquire(c.addr, &c.pc); !s.Done {
			return s
		}
		c.acquired = true
		if c.body != nil {
			c.body()
		}
	}
	s := c.b.Transfer(c.size, &c.pc)
	if s.Done {
		c.b.Release(c.addr)
	}
	return s
}

// Transactions and Bytes expose the traffic counters.
func (b *Bus) Transactions() uint64 { return b.transactions.Value() }

// Bytes returns the number of bytes carried.
func (b *Bus) Bytes() uint64 { return b.bytes.Value() }

// Utilization returns the mean occupancy across channels so far.
func (b *Bus) Utilization() float64 {
	var u float64
	for _, c := range b.chans {
		u += c.Utilization()
	}
	return u / float64(len(b.chans))
}

// Stats reports traffic and contention metrics.
func (b *Bus) Stats() *stats.Set {
	s := stats.NewSet(string(b.cfg.Kind))
	s.PutUint("transactions", b.transactions.Value(), "")
	s.PutUint("bytes", b.bytes.Value(), "B")
	s.Put("utilization", b.Utilization(), "")
	var wait float64
	for _, c := range b.chans {
		wait += c.AvgWait()
	}
	s.Put("avg arbitration wait", wait/float64(len(b.chans)), "cyc")
	s.PutInt("channels", int64(len(b.chans)), "")
	return s
}
