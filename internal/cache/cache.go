// Package cache models the cache hierarchy component of the single-node
// architecture template (Fig. 3a): parameterised set-associative caches that
// hold only address tags and state — never data, since Mermaid never
// interprets memory values — organised into private per-CPU levels and shared
// levels, kept coherent for multi-CPU nodes by a snoopy bus protocol (MESI)
// or, alternatively, a full-map directory scheme.
package cache

import (
	"fmt"

	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
)

// State is the coherence state of a cache line (MESI). Single-CPU
// configurations use Exclusive/Modified as plain valid/dirty.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Replacement selects the victim policy of a cache.
type Replacement uint8

const (
	LRU Replacement = iota
	FIFO
	Random
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	}
	return "?"
}

// WritePolicy selects how writes propagate from a cache level.
type WritePolicy uint8

const (
	// WriteBack allocates on write miss and marks lines dirty; dirty victims
	// are written back on eviction.
	WriteBack WritePolicy = iota
	// WriteThrough propagates every write to the next level immediately and
	// does not allocate on write miss.
	WriteThrough
)

// String returns the policy name.
func (w WritePolicy) String() string {
	if w == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// Config parameterises one cache level.
type Config struct {
	Name        string
	Size        int // total capacity in bytes
	LineSize    int // bytes per line (power of two)
	Assoc       int // ways per set; 0 means fully associative
	HitLatency  pearl.Time
	Write       WritePolicy
	Replacement Replacement
}

// Validate checks geometric consistency.
func (c *Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry (size %d, line %d)", c.Name, c.Size, c.LineSize)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.Size%c.LineSize != 0 {
		return fmt.Errorf("cache %s: size %d not a multiple of line size %d", c.Name, c.Size, c.LineSize)
	}
	lines := c.Size / c.LineSize
	assoc := c.Assoc
	if assoc == 0 {
		assoc = lines
	}
	if assoc < 0 || lines%assoc != 0 {
		return fmt.Errorf("cache %s: associativity %d does not divide %d lines", c.Name, c.Assoc, lines)
	}
	nsets := lines / assoc
	if nsets&(nsets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, nsets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %s: negative hit latency", c.Name)
	}
	return nil
}

type line struct {
	tag      uint64 // full line address (addr >> lineShift); uniqueness makes it both tag and identity
	state    State
	lastUse  uint64 // LRU clock
	loadedAt uint64 // FIFO clock
}

// Stats holds the per-cache event counters.
type Stats struct {
	Hits             stats.Counter
	Misses           stats.Counter
	Evictions        stats.Counter
	Writebacks       stats.Counter // dirty victims pushed down
	BackInvalidates  stats.Counter // inner copies dropped to preserve inclusion
	SnoopInvalidates stats.Counter // copies killed by other CPUs' writes
	SnoopDowngrades  stats.Counter // M/E -> S on other CPUs' reads
	SnoopSupplies    stats.Counter // dirty lines supplied cache-to-cache
	Upgrades         stats.Counter // S -> M permission upgrades
}

// Cache is one level: a set-associative, tags-only cache. It is a passive
// structure; timing is charged by the hierarchy that owns it. Methods are not
// safe for concurrent use — in a Pearl-style simulation exactly one process
// runs at a time, so no locking is needed or wanted.
type Cache struct {
	cfg       Config
	nsets     int
	assoc     int
	lineShift uint
	setMask   uint64
	sets      []line // nsets * assoc, row-major
	clock     uint64
	rng       *pearl.RNG

	// valid counts the valid lines of each set, so a full set skips the
	// search for a free way.
	valid []int32
	// index maps the line address of every valid line to its slot in sets.
	// It is kept only for sets wider than scanWays (nil otherwise), where a
	// hashed lookup beats comparing tags way by way.
	index map[uint64]int32
	// order threads the valid lines of every set on a circular doubly linked
	// list in replacement order, the next victim first: by last use under
	// LRU, by load under FIFO. Entry i < len(sets) belongs to slot i, entry
	// len(sets)+s is the sentinel of set s. Like the index it is kept only
	// for sets wider than scanWays (and not under Random), where reading the
	// sentinel replaces a scan of every way for the oldest clock. The two
	// agree exactly: a victim is picked only in a full set, and every write
	// of lastUse (loadedAt) gives one line a value no other holds and moves
	// that line to the back.
	order []link

	S Stats
}

// link is one entry of Cache.order: the neighbours of a slot in its set's
// replacement list, as indices into order.
type link struct{ prev, next int32 }

// scanWays is the widest set still searched by comparing tags way by way:
// up to a cache line or two of tags, a scan is cheaper than hashing. The
// PPC601's 8-way and direct-mapped caches scan; the T805's 256-way on-chip
// store goes through the index.
const scanWays = 8

// New creates a cache level; the config must validate.
func New(cfg Config, rng *pearl.RNG) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.Size / cfg.LineSize
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = lines
	}
	c := &Cache{
		cfg:   cfg,
		nsets: lines / assoc,
		assoc: assoc,
		rng:   rng,
	}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.setMask = uint64(c.nsets - 1)
	c.sets = make([]line, lines)
	c.valid = make([]int32, c.nsets)
	if assoc > scanWays {
		c.index = make(map[uint64]int32)
		if cfg.Replacement != Random {
			c.order = make([]link, lines+c.nsets)
			c.resetOrder()
		}
	}
	return c, nil
}

// resetOrder empties every set's replacement list.
func (c *Cache) resetOrder() {
	for i := len(c.sets); i < len(c.order); i++ {
		c.order[i] = link{prev: int32(i), next: int32(i)}
	}
}

// unlink takes slot i off its set's replacement list.
func (c *Cache) unlink(i int) {
	l := c.order[i]
	c.order[l.prev].next = l.next
	c.order[l.next].prev = l.prev
}

// pushBack makes slot i, which is on no list, the last victim of its set.
func (c *Cache) pushBack(i int) {
	end := int32(len(c.sets) + i/c.assoc)
	last := c.order[end].prev
	c.order[i] = link{prev: last, next: end}
	c.order[last].next = int32(i)
	c.order[end].prev = int32(i)
}

// used records a use of the valid line in slot i: it stamps the LRU clock
// and, under LRU, moves the line to the back of the replacement list —
// where the line used last already is.
func (c *Cache) used(i int) {
	c.sets[i].lastUse = c.clock
	if c.order != nil && c.cfg.Replacement == LRU && int(c.order[i].next) < len(c.sets) {
		c.unlink(i)
		c.pushBack(i)
	}
}

// MustNew is New for known-good configs (presets, tests).
func MustNew(cfg Config, rng *pearl.RNG) *Cache {
	c, err := New(cfg, rng)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() uint64 { return uint64(c.cfg.LineSize) }

// LineAddr returns the line address (addr with the offset bits shifted out),
// the canonical line identity used throughout the hierarchy.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// find is the one residency lookup: the slot in sets holding the line, or
// -1 when the line is not resident.
func (c *Cache) find(la uint64) int {
	if c.index != nil {
		if i, ok := c.index[la]; ok {
			return int(i)
		}
		return -1
	}
	base := int(la&c.setMask) * c.assoc
	for i, ln := range c.sets[base : base+c.assoc] {
		if ln.state != Invalid && ln.tag == la {
			return base + i
		}
	}
	return -1
}

// Lookup finds the line (by line address) and refreshes its LRU position.
// It returns nil on miss. Lookup does not update hit/miss counters; the
// hierarchy does, so that probes (snoops) don't pollute demand statistics.
func (c *Cache) Lookup(la uint64) *State {
	i := c.find(la)
	if i < 0 {
		return nil
	}
	c.clock++
	c.used(i)
	return &c.sets[i].state
}

// Probe finds the line without touching replacement state (used by snoops
// and tests).
func (c *Cache) Probe(la uint64) (State, bool) {
	if i := c.find(la); i >= 0 {
		return c.sets[i].state, true
	}
	return Invalid, false
}

// Victim describes a line displaced by Insert.
type Victim struct {
	LineAddr uint64
	State    State
}

// Insert places the line (by line address) in the given state, evicting a
// victim if the set is full. It reports the victim, if any. Inserting a line
// that is already present just overwrites its state.
func (c *Cache) Insert(la uint64, st State) (Victim, bool) {
	if st == Invalid {
		panic("cache: inserting invalid line")
	}
	c.clock++
	if i := c.find(la); i >= 0 {
		c.sets[i].state = st
		c.used(i)
		return Victim{}, false
	}
	setIdx := int(la & c.setMask)
	base := setIdx * c.assoc
	set := c.sets[base : base+c.assoc]
	var v Victim
	var way int
	evict := int(c.valid[setIdx]) == c.assoc
	if evict {
		if c.order != nil {
			way = int(c.order[len(c.sets)+setIdx].next) - base
			c.unlink(base + way)
		} else {
			way = c.pickVictim(set)
		}
		v = Victim{LineAddr: set[way].tag, State: set[way].state}
		c.S.Evictions.Inc()
		if v.State == Modified {
			c.S.Writebacks.Inc()
		}
		if c.index != nil {
			delete(c.index, v.LineAddr)
		}
	} else {
		for set[way].state != Invalid { // the lowest free way
			way++
		}
		c.valid[setIdx]++
	}
	set[way] = line{tag: la, state: st, lastUse: c.clock, loadedAt: c.clock}
	if c.index != nil {
		c.index[la] = int32(base + way)
	}
	if c.order != nil {
		c.pushBack(base + way)
	}
	return v, evict
}

// pickVictim scans a full set for the way to replace.
func (c *Cache) pickVictim(set []line) int {
	switch c.cfg.Replacement {
	case FIFO:
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].loadedAt < set[best].loadedAt {
				best = i
			}
		}
		return best
	case Random:
		if c.rng == nil {
			return 0
		}
		return c.rng.Intn(len(set))
	default: // LRU
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[best].lastUse {
				best = i
			}
		}
		return best
	}
}

// Invalidate removes the line if present, reporting its prior state.
func (c *Cache) Invalidate(la uint64) (State, bool) {
	i := c.find(la)
	if i < 0 {
		return Invalid, false
	}
	st := c.sets[i].state
	c.sets[i].state = Invalid
	c.valid[la&c.setMask]--
	if c.index != nil {
		delete(c.index, la)
	}
	if c.order != nil {
		c.unlink(i)
	}
	return st, true
}

// SetState changes the state of a present line; it reports whether the line
// was found.
func (c *Cache) SetState(la uint64, st State) bool {
	if st == Invalid {
		panic("cache: SetState to Invalid; use Invalidate")
	}
	i := c.find(la)
	if i < 0 {
		return false
	}
	c.sets[i].state = st
	return true
}

// Flush invalidates every line, returning how many were dirty (Modified).
func (c *Cache) Flush() (dirty int) {
	for i := range c.sets {
		if c.sets[i].state == Modified {
			dirty++
		}
		c.sets[i].state = Invalid
	}
	clear(c.valid)
	clear(c.index)
	c.resetOrder()
	return dirty
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].state != Invalid {
			n++
		}
	}
	return n
}

// FootprintBytes returns the host-side bookkeeping cost of the cache — a
// handful of words per line, independent of the simulated line size, because
// only tags and state are stored (paper §6). It prices the line array alone,
// not the lookup aids wide sets add (index, order).
func (c *Cache) FootprintBytes() int {
	return len(c.sets) * 32
}

// HitRatio returns hits/(hits+misses).
func (c *Cache) HitRatio() float64 {
	h, m := c.S.Hits.Value(), c.S.Misses.Value()
	return stats.Ratio(h, h+m)
}

// StatsSet reports the cache counters as a metric set.
func (c *Cache) StatsSet() *stats.Set {
	s := stats.NewSet(c.cfg.Name)
	s.PutUint("hits", c.S.Hits.Value(), "")
	s.PutUint("misses", c.S.Misses.Value(), "")
	s.Put("hit ratio", c.HitRatio(), "")
	s.PutUint("evictions", c.S.Evictions.Value(), "")
	s.PutUint("writebacks", c.S.Writebacks.Value(), "")
	s.PutUint("back invalidations", c.S.BackInvalidates.Value(), "")
	s.PutUint("snoop invalidations", c.S.SnoopInvalidates.Value(), "")
	s.PutUint("snoop downgrades", c.S.SnoopDowngrades.Value(), "")
	s.PutUint("snoop supplies", c.S.SnoopSupplies.Value(), "")
	s.PutUint("upgrades", c.S.Upgrades.Value(), "")
	return s
}

// Register publishes the cache's counters into the metrics registry under
// its dotted name (e.g. "node0.cpu0.L1.misses"), making them stable,
// greppable identifiers for the sampler and the registry dump.
func (c *Cache) Register(reg *probe.Registry) {
	n := c.cfg.Name
	reg.Counter(n+".hits", &c.S.Hits)
	reg.Counter(n+".misses", &c.S.Misses)
	reg.Gauge(n+".hit-ratio", "", c.HitRatio)
	reg.Counter(n+".evictions", &c.S.Evictions)
	reg.Counter(n+".writebacks", &c.S.Writebacks)
	reg.Counter(n+".back-invalidates", &c.S.BackInvalidates)
	reg.Counter(n+".snoop-invalidates", &c.S.SnoopInvalidates)
	reg.Counter(n+".snoop-downgrades", &c.S.SnoopDowngrades)
	reg.Counter(n+".snoop-supplies", &c.S.SnoopSupplies)
	reg.Counter(n+".upgrades", &c.S.Upgrades)
}
