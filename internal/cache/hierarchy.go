package cache

import (
	"fmt"

	"mermaid/internal/bus"
	"mermaid/internal/memory"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
)

// AccessKind distinguishes the three ways the CPU touches memory, matching
// the operation categories of Table 1: data loads, data stores, and
// instruction fetches.
type AccessKind uint8

const (
	Read AccessKind = iota
	Write
	Fetch
)

// String returns the access-kind name.
func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Fetch:
		return "fetch"
	}
	return "?"
}

// Coherence selects how multiple CPUs on a node keep their private caches
// consistent. The paper's template provides a snoopy bus protocol and notes
// that other strategies, like directory schemes, can be added with relative
// ease; both are provided here.
type Coherence uint8

const (
	// NoCoherence: only valid for single-CPU nodes or hierarchies with no
	// private levels (a common cache hierarchy shared by all CPUs).
	NoCoherence Coherence = iota
	// Snoopy is the Illinois/MESI snoopy bus protocol: misses broadcast on
	// the bus, other caches invalidate/downgrade and supply dirty lines.
	Snoopy
	// Directory is a full-map directory at the shared side: point-to-point
	// invalidations and interventions instead of broadcast snoops.
	Directory
)

// String returns the coherence scheme name.
func (c Coherence) String() string {
	switch c {
	case NoCoherence:
		return "none"
	case Snoopy:
		return "snoopy-MESI"
	case Directory:
		return "directory"
	}
	return "?"
}

// HierarchyConfig parameterises the full memory system of one node: private
// per-CPU cache levels (optionally with a split L1), shared levels behind the
// node bus, a coherence scheme, and the bus and DRAM parameters.
type HierarchyConfig struct {
	CPUs    int
	SplitL1 bool     // split level 0 into instruction and data caches
	L1I     Config   // instruction L1 (used only when SplitL1)
	Private []Config // per-CPU levels, innermost (L1 data) first
	Shared  []Config // shared levels behind the bus, innermost first

	Coherence Coherence
	// StoreBuffer, when positive, gives each CPU a write buffer of that many
	// entries in front of a write-through hierarchy: stores retire into the
	// buffer immediately (stalling only when it is full) and drain to the
	// shared tier in the background, contending with reads for the bus.
	StoreBuffer int
	// CacheToCacheLatency is the extra cycles for a dirty line supplied by
	// another CPU's cache under the snoopy protocol.
	CacheToCacheLatency pearl.Time
	// DirLookupLatency and DirMessageLatency parameterise the directory
	// scheme: one lookup per transaction plus one message per invalidation
	// or intervention.
	DirLookupLatency  pearl.Time
	DirMessageLatency pearl.Time

	Bus    bus.Config
	Memory memory.Config
}

// Validate checks the configuration's structural constraints and, through
// the bus and memory configurations' own Validate, writes their defaults in
// place of zero fields.
func (hc *HierarchyConfig) Validate() error {
	if hc.CPUs < 1 {
		return fmt.Errorf("hierarchy: %d CPUs", hc.CPUs)
	}
	all := make([]Config, 0, len(hc.Private)+len(hc.Shared)+1)
	all = append(all, hc.Private...)
	all = append(all, hc.Shared...)
	if hc.SplitL1 {
		if len(hc.Private) == 0 {
			return fmt.Errorf("hierarchy: SplitL1 requires at least one private level")
		}
		all = append(all, hc.L1I)
	}
	for i := range all {
		if err := all[i].validate(); err != nil {
			return err
		}
	}
	// Line sizes must not shrink with depth (inclusion at line granularity).
	chain := append(append([]Config{}, hc.Private...), hc.Shared...)
	for i := 1; i < len(chain); i++ {
		if chain[i].LineSize < chain[i-1].LineSize {
			return fmt.Errorf("hierarchy: level %d line size %d smaller than level %d's %d",
				i, chain[i].LineSize, i-1, chain[i-1].LineSize)
		}
	}
	if hc.SplitL1 && len(hc.Private) > 1 && hc.L1I.LineSize > hc.Private[1].LineSize {
		return fmt.Errorf("hierarchy: L1I line size exceeds next level's")
	}
	if err := hc.Bus.Validate(); err != nil {
		return err
	}
	if err := hc.Memory.Validate(); err != nil {
		return err
	}
	switch hc.Coherence {
	case NoCoherence:
		if hc.CPUs > 1 && len(hc.Private) > 0 {
			return fmt.Errorf("hierarchy: %d CPUs with private caches require a coherence scheme", hc.CPUs)
		}
	case Snoopy, Directory:
		if hc.Coherence == Snoopy && hc.Bus.Kind == bus.KindCrossbar {
			return fmt.Errorf("hierarchy: snoopy coherence needs a broadcast bus, not a crossbar (use the directory scheme)")
		}
		if len(hc.Private) == 0 {
			return fmt.Errorf("hierarchy: coherence scheme without private caches")
		}
		if hc.Private[len(hc.Private)-1].Write != WriteBack {
			return fmt.Errorf("hierarchy: coherence requires a write-back outermost private level")
		}
		if hc.CPUs > 64 {
			return fmt.Errorf("hierarchy: directory/snoopy support at most 64 CPUs per node, got %d", hc.CPUs)
		}
	default:
		return fmt.Errorf("hierarchy: unknown coherence scheme %d", hc.Coherence)
	}
	if hc.StoreBuffer > 0 {
		if len(hc.Private) == 0 || hc.Private[len(hc.Private)-1].Write != WriteThrough {
			return fmt.Errorf("hierarchy: a store buffer requires a write-through outermost private level")
		}
	}
	if hc.StoreBuffer < 0 {
		return fmt.Errorf("hierarchy: negative store buffer depth")
	}
	return nil
}

// dirEntry is one full-map directory record.
type dirEntry struct {
	sharers uint64 // bitmask over CPUs
	owner   int    // CPU holding the line dirty; -1 if clean
}

// Hierarchy is the assembled memory system of a node.
type Hierarchy struct {
	cfg HierarchyConfig
	k   *pearl.Kernel

	bus *bus.Bus
	mem *memory.DRAM

	priv  [][]*cache // [cpu][level], data chain; level 0 = L1D
	privI []*cache   // [cpu], L1I when split
	shd   []*cache   // shared levels

	dir map[uint64]*dirEntry

	// Store buffers (one per CPU) for write-through hierarchies.
	drains []*drain

	// Coherence-level geometry: the outermost private level defines the
	// coherence granularity.
	outer int // index of outermost private level; -1 if none

	// counters
	busRd      stats.Counter
	busRdX     stats.Counter
	busUpgr    stats.Counter
	busWB      stats.Counter
	wtWrites   stats.Counter
	c2c        stats.Counter
	dirLookups stats.Counter
	dirMsgs    stats.Counter

	// Timeline instrumentation (nil when no probe is attached): one
	// miss-fill track per CPU.
	tl         *probe.Timeline
	missTracks []probe.Track
	fill       probe.Name
}

// NewHierarchy builds the memory system in the given environment. env.RNG
// seeds random replacement; pass a nil stream for deterministic-only
// policies. env.Probe may be nil (no instrumentation); with a timeline
// attached, miss fills are recorded as spans.
func NewHierarchy(env sim.Env, name string, cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, rng, pb := env.Kernel, env.RNG, env.Probe
	if k == nil {
		return nil, fmt.Errorf("cache: nil kernel in environment")
	}
	h := &Hierarchy{
		cfg:   cfg,
		k:     k,
		bus:   bus.New(k, name+".bus", cfg.Bus, pb, env.Collect),
		mem:   memory.New(k, name+".mem", cfg.Memory, pb, env.Collect),
		outer: len(cfg.Private) - 1,
		dir:   make(map[uint64]*dirEntry),
	}
	stream := uint64(1)
	nextRNG := func() *pearl.RNG {
		if rng == nil {
			return nil
		}
		stream++
		return rng.Derive(stream)
	}
	for cpu := 0; cpu < cfg.CPUs; cpu++ {
		var chain []*cache
		for lvl, cc := range cfg.Private {
			cc.Name = fmt.Sprintf("%s.cpu%d.%s", name, cpu, levelName(cc.Name, lvl, false))
			chain = append(chain, mustNew(cc, nextRNG()))
		}
		h.priv = append(h.priv, chain)
		if cfg.SplitL1 {
			ic := cfg.L1I
			ic.Name = fmt.Sprintf("%s.cpu%d.%s", name, cpu, levelName(ic.Name, 0, true))
			h.privI = append(h.privI, mustNew(ic, nextRNG()))
		}
	}
	for lvl, cc := range cfg.Shared {
		cc.Name = fmt.Sprintf("%s.%s", name, levelName(cc.Name, len(cfg.Private)+lvl, false))
		h.shd = append(h.shd, mustNew(cc, nextRNG()))
	}
	if tl := pb.Timeline(); tl != nil {
		h.tl = tl
		h.fill = tl.Name("fill")
		h.missTracks = make([]probe.Track, cfg.CPUs)
		for cpu := range h.missTracks {
			h.missTracks[cpu] = tl.Track(fmt.Sprintf("%s.cpu%d.miss", name, cpu))
		}
	}
	if cfg.StoreBuffer > 0 {
		for cpu := 0; cpu < cfg.CPUs; cpu++ {
			slots := k.NewResource(fmt.Sprintf("%s.cpu%d.sb", name, cpu), cfg.StoreBuffer)
			env.Collect.Resource("storebuf", slots)
			d := &drain{a: h.newAccess(cpu), slots: slots, ring: make([]transaction, cfg.StoreBuffer),
				since: k.Now(), reason: k.NewReason("receive", fmt.Sprintf("%s.cpu%d.sbq", name, cpu))}
			d.c.Init(k, d.step)
			if env.Collect.Enabled() {
				d.c.Spans = env.Collect.BlockSpan
			}
			d.c.Start()
			h.drains = append(h.drains, d)
		}
	}
	return h, nil
}

// drain retires one CPU's buffered stores to the shared tier, one
// write-through at a time, competing with demand traffic for the bus. It is a
// chain that runs while stores are buffered and ends when none is; the next
// store starts it again with one zero-delay event, and the idle time it ends
// is a block span for the reason given.
type drain struct {
	a      *access
	c      pearl.Chain
	slots  *pearl.Resource // the buffer's entries; a store holds one until written
	ring   []transaction   // the n buffered stores from ring[head] on, one per slot held
	head   int
	n      int
	busy   bool       // ring[head] is being written
	idle   bool       // none was: the next push starts the chain
	since  pearl.Time // ... since then
	reason pearl.Reason
}

// push buffers a store: the CPU has taken a slot for it.
func (d *drain) push(w transaction) {
	d.ring[(d.head+d.n)%len(d.ring)] = w
	d.n++
	if d.idle {
		d.idle = false
		d.c.Start()
	}
}

func (d *drain) step() pearl.Step {
	h := d.a.h
	if now := h.k.Now(); !d.busy && d.since < now && d.c.Spans != nil {
		d.c.Spans(d.since, now, d.reason)
	}
	for {
		if d.busy {
			if s := d.a.run(); !s.Done {
				return s
			}
			d.busy = false
			d.head = (d.head + 1) % len(d.ring)
			d.n--
			d.slots.Release()
		}
		if d.n == 0 {
			d.idle, d.since = true, h.k.Now()
			return pearl.Step{Done: true}
		}
		h.wtWrites.Inc()
		d.a.transact(d.ring[d.head], pcDone)
		d.busy = true
	}
}

func levelName(explicit string, lvl int, instr bool) string {
	if explicit != "" {
		return explicit
	}
	if instr {
		return "L1I"
	}
	return fmt.Sprintf("L%d", lvl+1)
}

// caches returns every cache instance (for statistics and tests): data
// chains per CPU, instruction L1s, then shared levels.
func (h *Hierarchy) caches() []*cache {
	var out []*cache
	for _, chain := range h.priv {
		out = append(out, chain...)
	}
	out = append(out, h.privI...)
	out = append(out, h.shd...)
	return out
}

// Private reports whether the hierarchy serves one CPU and runs nothing of
// its own between that CPU's accesses: no store-buffer drain.
func (h *Hierarchy) Private() bool { return h.cfg.CPUs == 1 && h.drains == nil }

// Port is a CPU-side handle for issuing memory accesses, one at a time.
type Port struct {
	a *access
	// data and instr are the private chains, innermost first, that loads and
	// stores resp. instruction fetches walk; they differ only in a split L1.
	data, instr []*cache
}

// Port returns the access port for the given CPU.
func (h *Hierarchy) Port(cpu int) *Port {
	if cpu < 0 || cpu >= h.cfg.CPUs {
		panic(fmt.Sprintf("cache: port for CPU %d of %d", cpu, h.cfg.CPUs))
	}
	pt := &Port{a: h.newAccess(cpu)}
	if len(h.cfg.Private) == 0 {
		return pt
	}
	pt.data = h.priv[cpu]
	pt.instr = pt.data
	if h.cfg.SplitL1 {
		pt.instr = append([]*cache{h.privI[cpu]}, pt.data[1:]...)
	}
	return pt
}

// Access performs a memory access of the given kind, blocking the calling
// process for its full latency, including queueing at the bus and memory.
// Accesses spanning L1 line boundaries are split.
func (pt *Port) Access(p *pearl.Process, kind AccessKind, addr, size uint64) {
	pt.Begin(kind, addr, size)
	p.HoldWhile(pt.a.step)
}

// Begin starts a memory access of the given kind without blocking anyone:
// the caller — a pearl.Chain step function — lets it proceed by calling Step.
// One access is in flight per port.
func (pt *Port) Begin(kind AccessKind, addr, size uint64) {
	if size == 0 {
		size = 1
	}
	a := pt.a
	a.began = a.h.k.Now()
	if len(pt.data) == 0 {
		// Common (fully shared) hierarchy: every access is a bus + shared
		// tier transaction.
		a.transact(transaction{addr: addr, size: size, write: kind == Write}, pcDone)
		return
	}
	a.kind, a.chain = kind, pt.data
	if kind == Fetch {
		a.chain = pt.instr
	}
	a.next, a.end = addr, addr+size
	a.pc = pcPiece
}

// Step continues the access in flight: it returns the hold or resource wait
// the access needs next and is to be called again once that has been served.
// When it reports Done the access is complete and latency is the time it
// took, queueing included.
func (pt *Port) Step() (s pearl.Step, latency pearl.Time) {
	if s = pt.a.run(); s.Done {
		latency = pt.a.h.k.Now() - pt.a.began
	}
	return s, latency
}

// pc is a point at which an access in flight resumes.
type pc uint8

const (
	pcDone pc = iota

	// The private chain (below).
	pcPiece    // split off the next piece that lies in one innermost line
	pcLevel    // charge the hit latency of private level lvl
	pcLookup   // ... which has passed: look the line up there
	pcMissed   // the whole private chain missed, or wrote through
	pcUpgraded // the upgrade transaction of a write hit on a Shared line is over
	pcOwned    // the line may be written: mark it Modified, allocate it further in
	pcBuffered // a store buffer slot has been granted
	pcFetched  // the line has arrived from the coherence level
	pcFill     // install it at private level lvl, then further in
	pcEvicted  // the outermost victim's write-back, if any, is over

	// The bus transaction (coherence.go).
	pcAcquire        // win the bus
	pcDirLookup      // the directory lookup latency has passed
	pcDirNext        // find the next sharer to invalidate
	pcDirInvalidated // ... whose invalidation message has arrived
	pcDirIntervened  // the intervention message has reached the owner
	pcDirRead        // book a read miss in the directory
	pcData           // the line's data: from the shared tier, or a dirty owner
	pcSupplied       // the cache-to-cache latency has passed
	pcShared         // charge the hit latency of shared level walk.lvl
	pcSharedLookup   // ... which has passed: look the line up there
	pcMemory         // below the last shared level: DRAM
	pcSharedReturn   // allocate on the way back up
	pcTransfer       // move the bytes over the bus
	pcRelease        // release the bus; the transaction is over
)

// access is a memory access in flight, from the port down through the bus to
// DRAM and back: run executes it up to its next hold or acquisition, returns
// that wait as a pearl.Step, and continues from pc when it is called again.
// All state that has to survive a wait lives here; an access allocates
// nothing.
type access struct {
	h    *Hierarchy
	cpu  int
	step func() pearl.Step // run, bound once

	pc    pc
	ret   pc         // where to continue when the bus transaction is over
	sub   int        // program counter of the bus or DRAM call in progress
	began pearl.Time // when the access was begun

	kind      AccessKind
	chain     []*cache
	next, end uint64 // what is left of the access
	addr      uint64 // the current piece, inside one innermost line
	size      uint64
	lvl       int
	st        state      // state the fetched line is installed in
	fillFrom  pearl.Time // start of the miss being filled
	fillSpan  bool       // ... which goes on the timeline
	victim    uint64     // line displaced from the outermost private level

	txn  transaction
	dir  *dirEntry // the line's directory entry, looked up once per transaction
	walk sharedWalk
}

func (h *Hierarchy) newAccess(cpu int) *access {
	a := &access{h: h, cpu: cpu}
	a.step = a.run
	a.walk.frames = make([]sharedFrame, 0, len(h.shd))
	return a
}

// run continues the access up to its next wait, or to its end.
func (a *access) run() pearl.Step {
	h := a.h
	for {
		switch a.pc {
		default:
			// In a bus transaction (coherence.go), which ends back at a.ret.
			if s := a.runTransaction(); !s.Done {
				return s
			}

		case pcDone:
			return pearl.Step{Done: true}

		case pcPiece:
			if a.next >= a.end {
				a.pc = pcDone
				continue
			}
			// Split by innermost line granularity on the relevant chain.
			l1 := a.chain[0]
			a.addr, a.size = a.next, a.end-a.next
			if lineEnd := (l1.lineAddr(a.addr) + 1) << l1.lineShift; a.end > lineEnd {
				a.size = lineEnd - a.addr
			}
			a.next += a.size
			a.lvl = 0
			a.pc = pcLevel
			fallthrough

		case pcLevel:
			if a.lvl == len(a.chain) {
				a.pc = pcMissed
				continue
			}
			a.pc = pcLookup
			if lat := a.chain[a.lvl].cfg.HitLatency; lat > 0 {
				return pearl.Step{Hold: lat}
			}
			fallthrough

		case pcLookup:
			c := a.chain[a.lvl]
			st := c.lookup(c.lineAddr(a.addr))
			if st == nil {
				// Try the next level; the fill happens on the way back. (A
				// write-through level does not allocate on a write at all.)
				c.S.Misses.Inc()
				a.lvl++
				a.pc = pcLevel
				continue
			}
			c.S.Hits.Inc()
			switch {
			case a.kind != Write:
				a.fill(a.lvl-1, *st)
				a.pc = pcPiece
			case c.cfg.Write == WriteThrough:
				// Update this level, propagate the write down.
				a.lvl++
				a.pc = pcLevel
			default:
				// Write-back hit: need ownership at the coherence level, then
				// allocate the line (Modified) in the inner levels.
				a.pc = pcOwned
				if h.cfg.Coherence != NoCoherence {
					outerC := h.priv[a.cpu][h.outer]
					ola := outerC.lineAddr(a.addr)
					if st, ok := outerC.probe(ola); ok && st == shared {
						a.transact(a.coherent(txnUpgrade, ola, false), pcUpgraded)
					}
				}
			}

		case pcUpgraded:
			if !a.txn.ok {
				// Line was invalidated before we won the bus: full write miss.
				a.fillSpan = false
				a.transact(a.coherent(txnFetch, a.txn.ola, true), pcFetched)
				continue
			}
			h.priv[a.cpu][h.outer].S.Upgrades.Inc()
			fallthrough

		case pcOwned:
			a.markModified()
			a.fill(a.lvl-1, modified)
			a.pc = pcPiece

		case pcMissed:
			outerC := a.chain[len(a.chain)-1]
			if a.kind == Write && outerC.cfg.Write == WriteThrough {
				// Fully write-through hierarchy (single CPU): write to shared
				// tier, through the store buffer when configured.
				if h.drains != nil {
					a.pc = pcBuffered
					return pearl.Step{Acquire: h.drains[a.cpu].slots} // waits only when the buffer is full
				}
				h.wtWrites.Inc()
				a.transact(transaction{addr: a.addr, size: a.size, write: true}, pcPiece)
				continue
			}
			// Miss fill: the whole private chain missed, so the time from here
			// to the fill completing is the CPU-visible miss penalty.
			a.fillSpan, a.fillFrom = h.tl != nil, h.k.Now()
			a.transact(a.coherent(txnFetch, outerC.lineAddr(a.addr), a.kind == Write), pcFetched)

		case pcBuffered:
			h.drains[a.cpu].push(transaction{addr: a.addr, size: a.size, write: true})
			a.pc = pcPiece

		case pcFetched:
			// Install the line into the entire private chain, outermost first.
			switch {
			case a.txn.write:
				a.st = modified
			case a.txn.sharedElsewhere:
				a.st = shared
			default:
				a.st = exclusive
			}
			a.lvl = len(a.chain) - 1
			a.pc = pcFill
			fallthrough

		case pcFill:
			if a.lvl < 0 {
				if a.fillSpan {
					h.tl.NamedSpan(h.missTracks[a.cpu], h.fill, a.fillFrom, h.k.Now())
				}
				a.pc = pcPiece
				continue
			}
			lvl := a.lvl
			a.lvl--
			v, had := a.install(lvl, a.st)
			if !had || lvl != len(a.chain)-1 {
				continue
			}
			// Outermost private level: the victim leaves the CPU entirely, a
			// dirty one in a write-back bus transaction of its own.
			a.victim = v.LineAddr
			a.pc = pcEvicted
			if v.State == modified {
				h.busWB.Inc()
				a.transact(transaction{
					addr: v.LineAddr << h.priv[0][h.outer].lineShift, size: a.chain[lvl].lineSize(), write: true,
				}, pcEvicted)
			}

		case pcEvicted:
			if h.cfg.Coherence == Directory {
				h.dirEvict(a.cpu, a.victim)
			}
			a.pc = pcFill
		}
	}
}

// markModified marks the line Modified at every write-back level of the data
// chain that holds it.
func (a *access) markModified() {
	for _, c := range a.h.priv[a.cpu] {
		if c.cfg.Write == WriteThrough {
			continue
		}
		c.setState(c.lineAddr(a.addr), modified)
	}
}

// fill installs the line containing the piece into private levels
// innermost..upto (inclusive) in the given state. No timing is charged: fills
// happen under the latency already paid, and an inner victim needs none.
func (a *access) fill(upto int, st state) {
	for lvl := upto; lvl >= 0; lvl-- {
		a.install(lvl, st)
	}
}

// install puts the line into private level lvl of the chain and
// back-invalidates what a displaced victim covered in the levels inside it
// (inclusion). An inner dirty victim merges into the next level, which holds
// the line Modified already (write rule); the caller deals with an outermost
// one.
func (a *access) install(lvl int, st state) (v victim, had bool) {
	c := a.chain[lvl]
	if a.kind == Write && c.cfg.Write == WriteThrough {
		return v, false // write-through levels don't allocate on writes
	}
	if a.kind == Fetch && st == modified {
		st = exclusive
	}
	if v, had = c.insert(c.lineAddr(a.addr), st); had {
		a.h.backInvalidate(a.cpu, lvl, v.LineAddr<<c.lineShift, c.lineSize())
	}
	return v, had
}

// backInvalidate drops all copies covered by [base, base+size) from levels
// strictly inner than lvl, in both the data and instruction chains.
func (h *Hierarchy) backInvalidate(cpu, lvl int, base, size uint64) {
	n := lvl
	if n > len(h.priv[cpu]) {
		n = len(h.priv[cpu])
	}
	for _, c := range h.priv[cpu][:n] {
		h.invalidateRange(c, base, size, &c.S.BackInvalidates)
	}
	if h.cfg.SplitL1 && lvl >= 1 {
		ic := h.privI[cpu]
		h.invalidateRange(ic, base, size, &ic.S.BackInvalidates)
	}
}

func (h *Hierarchy) invalidateRange(c *cache, base, size uint64, counter *stats.Counter) {
	for a := base; a < base+size; a += c.lineSize() {
		if _, ok := c.invalidate(c.lineAddr(a)); ok {
			counter.Inc()
		}
	}
}

// InvalidateSharedRange drops every cached line in [base, base+size) from
// all caches of the node, without charging time. The virtual-shared-memory
// layer calls it when a page is invalidated or migrated away, keeping the
// hardware caches included in the DSM page table.
func (h *Hierarchy) InvalidateSharedRange(base, size uint64) {
	for _, c := range h.caches() {
		h.invalidateRange(c, base, size, &c.S.SnoopInvalidates)
	}
}

// StatsSet aggregates the full hierarchy's statistics.
func (h *Hierarchy) StatsSet() *stats.Set {
	s := stats.NewSet("memory-hierarchy")
	coh := s.Sub("coherence")
	coh.PutUint("bus reads (BusRd)", h.busRd.Value(), "")
	coh.PutUint("bus read-exclusives (BusRdX)", h.busRdX.Value(), "")
	coh.PutUint("upgrades (BusUpgr)", h.busUpgr.Value(), "")
	coh.PutUint("write-backs", h.busWB.Value(), "")
	coh.PutUint("write-throughs", h.wtWrites.Value(), "")
	coh.PutUint("cache-to-cache supplies", h.c2c.Value(), "")
	coh.PutUint("directory lookups", h.dirLookups.Value(), "")
	coh.PutUint("directory messages", h.dirMsgs.Value(), "")
	for _, c := range h.caches() {
		s.Subsets = append(s.Subsets, c.statsSet())
	}
	s.Subsets = append(s.Subsets, h.bus.Stats(), h.mem.Stats())
	return s
}
