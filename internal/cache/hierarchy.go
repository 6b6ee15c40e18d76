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

// Validate checks the configuration's structural constraints.
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
		if err := all[i].Validate(); err != nil {
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

	priv  [][]*Cache // [cpu][level], data chain; level 0 = L1D
	privI []*Cache   // [cpu], L1I when split
	shd   []*Cache   // shared levels

	dir map[uint64]*dirEntry

	// Store buffers (one per CPU) for write-through hierarchies.
	sbSlots []*pearl.Resource
	sbQueue []*pearl.Mailbox

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
}

// NewHierarchy builds the memory system in the given environment. env.RNG
// seeds random replacement; pass a nil stream for deterministic-only
// policies. env.Probe may be nil (no instrumentation); with a probe
// attached, every cache registers its counters under its dotted name and
// miss fills are recorded as spans.
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
		var chain []*Cache
		for lvl, cc := range cfg.Private {
			cc.Name = fmt.Sprintf("%s.cpu%d.%s", name, cpu, levelName(cc.Name, lvl, false))
			chain = append(chain, MustNew(cc, nextRNG()))
		}
		h.priv = append(h.priv, chain)
		if cfg.SplitL1 {
			ic := cfg.L1I
			ic.Name = fmt.Sprintf("%s.cpu%d.%s", name, cpu, levelName(ic.Name, 0, true))
			h.privI = append(h.privI, MustNew(ic, nextRNG()))
		}
	}
	for lvl, cc := range cfg.Shared {
		cc.Name = fmt.Sprintf("%s.%s", name, levelName(cc.Name, len(cfg.Private)+lvl, false))
		h.shd = append(h.shd, MustNew(cc, nextRNG()))
	}
	reg := pb.Registry()
	for _, c := range h.Caches() {
		c.Register(reg)
	}
	reg.Counter(name+".coherence.bus-reads", &h.busRd)
	reg.Counter(name+".coherence.bus-read-x", &h.busRdX)
	reg.Counter(name+".coherence.upgrades", &h.busUpgr)
	reg.Counter(name+".coherence.writebacks", &h.busWB)
	reg.Counter(name+".coherence.writethroughs", &h.wtWrites)
	reg.Counter(name+".coherence.c2c-supplies", &h.c2c)
	reg.Counter(name+".coherence.dir-lookups", &h.dirLookups)
	reg.Counter(name+".coherence.dir-messages", &h.dirMsgs)
	if tl := pb.Timeline(); tl != nil {
		h.tl = tl
		h.missTracks = make([]probe.Track, cfg.CPUs)
		for cpu := range h.missTracks {
			h.missTracks[cpu] = tl.Track(fmt.Sprintf("%s.cpu%d.miss", name, cpu))
		}
	}
	if cfg.StoreBuffer > 0 {
		for cpu := 0; cpu < cfg.CPUs; cpu++ {
			slots := k.NewResource(fmt.Sprintf("%s.cpu%d.sb", name, cpu), cfg.StoreBuffer)
			env.Collect.Resource("storebuf", slots)
			queue := k.NewMailbox(fmt.Sprintf("%s.cpu%d.sbq", name, cpu))
			h.sbSlots = append(h.sbSlots, slots)
			h.sbQueue = append(h.sbQueue, queue)
			k.Spawn(fmt.Sprintf("%s.cpu%d.drain", name, cpu), func(p *pearl.Process) {
				h.drainStoreBuffer(p, queue, slots)
			})
		}
	}
	return h, nil
}

// sbWrite is one buffered store awaiting drain.
type sbWrite struct {
	addr uint64
	size uint64
}

// drainStoreBuffer is the per-CPU background process that retires buffered
// stores to the shared tier, competing with demand traffic for the bus.
func (h *Hierarchy) drainStoreBuffer(p *pearl.Process, queue *pearl.Mailbox, slots *pearl.Resource) {
	for {
		w := p.Receive(queue).(sbWrite)
		h.wtWrites.Inc()
		h.bus.Acquire(p, w.addr)
		h.sharedWrite(p, w.addr, w.size)
		h.bus.Transfer(p, w.size)
		h.bus.Release(w.addr)
		slots.Release()
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

// Bus returns the node bus (for external statistics).
func (h *Hierarchy) Bus() *bus.Bus { return h.bus }

// Memory returns the DRAM model.
func (h *Hierarchy) Memory() *memory.DRAM { return h.mem }

// Caches returns every cache instance (for statistics and tests): data
// chains per CPU, instruction L1s, then shared levels.
func (h *Hierarchy) Caches() []*Cache {
	var out []*Cache
	for _, chain := range h.priv {
		out = append(out, chain...)
	}
	out = append(out, h.privI...)
	out = append(out, h.shd...)
	return out
}

// PrivateCache returns CPU cpu's private data cache at the given level.
func (h *Hierarchy) PrivateCache(cpu, level int) *Cache { return h.priv[cpu][level] }

// InstrCache returns CPU cpu's L1 instruction cache (nil if not split).
func (h *Hierarchy) InstrCache(cpu int) *Cache {
	if !h.cfg.SplitL1 {
		return nil
	}
	return h.privI[cpu]
}

// SharedCache returns the shared cache at the given index.
func (h *Hierarchy) SharedCache(i int) *Cache { return h.shd[i] }

// Port is a CPU-side handle for issuing memory accesses.
type Port struct {
	h   *Hierarchy
	cpu int
	// data and instr are the private chains, innermost first, that loads and
	// stores resp. instruction fetches walk; they differ only in a split L1.
	data, instr []*Cache
	// private: no other CPU, snoop or directory message can touch the
	// chains, so nothing changes them while this CPU is in a hold.
	private bool
}

// Port returns the access port for the given CPU.
func (h *Hierarchy) Port(cpu int) *Port {
	if cpu < 0 || cpu >= h.cfg.CPUs {
		panic(fmt.Sprintf("cache: port for CPU %d of %d", cpu, h.cfg.CPUs))
	}
	pt := &Port{h: h, cpu: cpu}
	if len(h.cfg.Private) == 0 {
		return pt
	}
	pt.data = h.priv[cpu]
	pt.instr = pt.data
	if h.cfg.SplitL1 {
		pt.instr = append([]*Cache{h.privI[cpu]}, pt.data[1:]...)
	}
	pt.private = h.cfg.CPUs == 1 && h.cfg.Coherence == NoCoherence
	return pt
}

// Hit is the non-blocking front of Access for the one case that needs no
// process: an access that lies inside one line, hits the innermost level of
// a private port and is not a write to a write-through level. It performs
// the lookup — refreshing the line's replacement position and, for a write,
// marking it Modified — and returns that level and its hit latency; the
// caller holds for the latency and then counts the hit in l1.S.Hits, which
// is what Access does at the same virtual time. Access looks up when the
// latency expires rather than when it starts, but on a private port nothing
// else can change the chain in between, so the two orders are
// indistinguishable — provided no outside agent invalidates lines either:
// on a node with a virtual-shared-memory layer, use Access. For every other
// access Hit changes nothing and returns a nil level.
func (pt *Port) Hit(kind AccessKind, addr, size uint64) (d pearl.Time, l1 *Cache) {
	if !pt.private {
		return 0, nil
	}
	if size == 0 {
		size = 1
	}
	l1 = pt.chain(kind)[0]
	la := l1.LineAddr(addr)
	if l1.LineAddr(addr+size-1) != la || (kind == Write && l1.cfg.Write == WriteThrough) {
		return 0, nil
	}
	if l1.Lookup(la) == nil {
		return 0, nil
	}
	if kind == Write {
		pt.markModified(addr)
	}
	return l1.cfg.HitLatency, l1
}

// Access performs a memory access of the given kind, blocking the calling
// process for its full latency, including queueing at the bus and memory.
// Accesses spanning L1 line boundaries are split.
func (pt *Port) Access(p *pearl.Process, kind AccessKind, addr, size uint64) {
	if size == 0 {
		size = 1
	}
	h := pt.h
	if len(h.cfg.Private) == 0 {
		// Common (fully shared) hierarchy: every access is a bus + shared
		// tier transaction.
		h.bus.Acquire(p, addr)
		if kind == Write {
			h.sharedWrite(p, addr, size)
		} else {
			h.sharedRead(p, addr, size)
		}
		h.bus.Transfer(p, size)
		h.bus.Release(addr)
		return
	}
	// Split by innermost line granularity on the relevant chain.
	l1 := pt.chain(kind)[0]
	first := l1.LineAddr(addr)
	last := l1.LineAddr(addr + size - 1)
	for la := first; la <= last; la++ {
		pieceAddr := addr
		pieceEnd := addr + size
		if la > first {
			pieceAddr = la << l1.lineShift
		}
		if lineEnd := (la + 1) << l1.lineShift; pieceEnd > lineEnd {
			pieceEnd = lineEnd
		}
		pt.accessLine(p, kind, pieceAddr, pieceEnd-pieceAddr)
	}
}

// chain returns the private cache chain for the access kind.
func (pt *Port) chain(kind AccessKind) []*Cache {
	if kind == Fetch {
		return pt.instr
	}
	return pt.data
}

// accessLine walks the private chain for one piece that lies within a single
// innermost-granularity line.
func (pt *Port) accessLine(p *pearl.Process, kind AccessKind, addr, size uint64) {
	h := pt.h
	chain := pt.chain(kind)
	for i, c := range chain {
		if c.cfg.HitLatency > 0 {
			p.Hold(c.cfg.HitLatency)
		}
		la := c.LineAddr(addr)
		st := c.Lookup(la)
		if st != nil {
			c.S.Hits.Inc()
			if kind != Write {
				pt.fill(kind, addr, i-1, *st)
				return
			}
			if c.cfg.Write == WriteThrough {
				// Update this level, propagate the write down.
				continue
			}
			// Write-back hit: need ownership at the coherence level, then
			// allocate the line (Modified) in the inner levels.
			if pt.ensureOwnership(p, addr) {
				pt.fill(Write, addr, i-1, Modified)
			}
			return
		}
		c.S.Misses.Inc()
		if kind == Write && c.cfg.Write == WriteThrough {
			continue // no write-allocate; keep propagating
		}
		if i < len(chain)-1 {
			continue // try next level; fill happens on the way back
		}
	}
	// Missed (or wrote through) the whole private chain.
	outerC := chain[len(chain)-1]
	if kind == Write && outerC.cfg.Write == WriteThrough {
		// Fully write-through hierarchy (single CPU): write to shared tier,
		// through the store buffer when configured.
		if h.sbSlots != nil {
			p.Acquire(h.sbSlots[pt.cpu]) // stalls only when the buffer is full
			h.sbQueue[pt.cpu].Send(sbWrite{addr: addr, size: size})
			return
		}
		h.writeThrough(p, addr, size)
		return
	}
	ola := outerC.LineAddr(addr)
	if h.tl == nil {
		st := h.fetchLine(p, pt.cpu, ola, kind == Write)
		pt.fillAll(p, kind, addr, st)
		return
	}
	// Miss fill: the whole private chain missed, so the time from here to
	// the fill completing is the CPU-visible miss penalty.
	start := p.Now()
	st := h.fetchLine(p, pt.cpu, ola, kind == Write)
	pt.fillAll(p, kind, addr, st)
	h.tl.Span(h.missTracks[pt.cpu], "fill", start, p.Now())
}

// ensureOwnership handles a write-back write hit: obtaining write permission
// if the coherence state is Shared, then marking the line Modified at every
// private level that holds it. It reports true on the plain-hit path; false
// means the line was lost to a race and re-fetched (fill already done).
func (pt *Port) ensureOwnership(p *pearl.Process, addr uint64) bool {
	h := pt.h
	chain := h.priv[pt.cpu]
	outerC := chain[h.outer]
	ola := outerC.LineAddr(addr)
	if h.cfg.Coherence != NoCoherence {
		if st, ok := outerC.Probe(ola); ok && st == Shared {
			if !h.upgrade(p, pt.cpu, ola) {
				// Line was invalidated before we won the bus: full write miss.
				st := h.fetchLine(p, pt.cpu, ola, true)
				pt.fillAll(p, Write, addr, st)
				return false
			}
			outerC.S.Upgrades.Inc()
		}
	}
	pt.markModified(addr)
	return true
}

// markModified marks the line Modified at every write-back level of the data
// chain that holds it.
func (pt *Port) markModified(addr uint64) {
	for _, c := range pt.data {
		if c.cfg.Write == WriteThrough {
			continue
		}
		c.SetState(c.LineAddr(addr), Modified)
	}
}

// fill installs the line containing addr into private levels innermost..upto
// (inclusive) in the given state, handling victims. No timing is charged:
// fills happen under the latency already paid by the miss path.
func (pt *Port) fill(kind AccessKind, addr uint64, upto int, st State) {
	chain := pt.chain(kind)
	for i := upto; i >= 0; i-- {
		c := chain[i]
		if kind == Write && c.cfg.Write == WriteThrough {
			continue // write-through levels don't allocate on writes
		}
		s := st
		if kind == Fetch && s == Modified {
			s = Exclusive
		}
		v, had := c.Insert(c.LineAddr(addr), s)
		if had {
			pt.h.evictVictim(pt.cpu, chain, i, v, nil)
		}
	}
}

// fillAll installs the line into the entire private chain after a fetch from
// the coherence level, outermost first. Dirty victims at the outermost level
// cause a write-back bus transaction (timing charged to p).
func (pt *Port) fillAll(p *pearl.Process, kind AccessKind, addr uint64, st State) {
	chain := pt.chain(kind)
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		if kind == Write && c.cfg.Write == WriteThrough {
			continue
		}
		s := st
		if kind == Fetch && s == Modified {
			s = Exclusive
		}
		v, had := c.Insert(c.LineAddr(addr), s)
		if had {
			pt.h.evictVictim(pt.cpu, chain, i, v, p)
		}
	}
}

// evictVictim processes a victim displaced from level lvl of the given
// chain: back-invalidates inner copies (inclusion), writes dirty outermost
// victims back over the bus, and updates the directory. p may be nil for
// inner levels, where no timing is charged.
func (h *Hierarchy) evictVictim(cpu int, chain []*Cache, lvl int, v Victim, p *pearl.Process) {
	c := chain[lvl]
	base := v.LineAddr << c.lineShift
	sz := c.LineSize()
	// Back-invalidate every inner level (both instruction and data chains).
	h.backInvalidate(cpu, lvl, base, sz)
	if lvl == len(chain)-1 {
		// Outermost private level: victim leaves the CPU entirely.
		if v.State == Modified && p != nil {
			h.writeBackLine(p, v.LineAddr, sz)
		}
		if h.cfg.Coherence == Directory {
			h.dirEvict(cpu, v.LineAddr)
		}
	}
	// Inner dirty victims merge into the next level, which holds the line
	// Modified already (write rule); no action needed.
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

func (h *Hierarchy) invalidateRange(c *Cache, base, size uint64, counter *stats.Counter) {
	for a := base; a < base+size; a += c.LineSize() {
		if _, ok := c.Invalidate(c.LineAddr(a)); ok {
			counter.Inc()
		}
	}
}

// InvalidateSharedRange drops every cached line in [base, base+size) from
// all caches of the node, without charging time. The virtual-shared-memory
// layer calls it when a page is invalidated or migrated away, keeping the
// hardware caches included in the DSM page table.
func (h *Hierarchy) InvalidateSharedRange(base, size uint64) {
	for _, c := range h.Caches() {
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
	for _, c := range h.Caches() {
		s.Subsets = append(s.Subsets, c.StatsSet())
	}
	s.Subsets = append(s.Subsets, h.bus.Stats(), h.mem.Stats())
	return s
}

// FootprintBytes sums the host bookkeeping cost of all caches: the
// tags-only representation of the paper's §6.
func (h *Hierarchy) FootprintBytes() int {
	n := 0
	for _, c := range h.Caches() {
		n += c.FootprintBytes()
	}
	return n
}
