// Package cache models the cache hierarchy component of the single-node
// architecture template (Fig. 3a): parameterised set-associative caches that
// hold only address tags and state — never data, since Mermaid never
// interprets memory values — organised into private per-CPU levels and shared
// levels, kept coherent for multi-CPU nodes by a snoopy bus protocol (MESI)
// or, alternatively, a full-map directory scheme.
package cache

import (
	"fmt"
	"math/bits"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// state is the coherence state of a cache line (MESI). Single-CPU
// configurations use Exclusive/Modified as plain valid/dirty.
type state uint8

const (
	invalid state = iota
	shared
	exclusive
	modified
)

// String returns the one-letter MESI name.
func (s state) String() string {
	switch s {
	case invalid:
		return "I"
	case shared:
		return "S"
	case exclusive:
		return "E"
	case modified:
		return "M"
	}
	return "?"
}

// Replacement selects the victim policy of a cache.
type Replacement uint8

const (
	lru Replacement = iota
	fifo
	Random
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case lru:
		return "LRU"
	case fifo:
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

// validate checks geometric consistency.
func (c *Config) validate() error {
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
	state    state
	lastUse  uint64 // LRU clock
	loadedAt uint64 // FIFO clock
}

// counters holds the per-cache event counters.
type counters struct {
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

// cache is one level: a set-associative, tags-only cache. It is a passive
// structure; timing is charged by the hierarchy that owns it. Methods are not
// safe for concurrent use — a simulation runs one component at a time, so no
// locking is needed or wanted.
type cache struct {
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
	// index is an open-addressed hash table of the valid lines: an entry is
	// a slot in sets plus one, 0 is empty, and the key of an entry is the tag
	// of its line. It has a power-of-two size of at least twice the lines,
	// probes linearly from a line address's home entry, and deletes by
	// shifting the entries after it back, so it needs no tombstones. It is
	// kept only for sets wider than scanWays (nil otherwise), where a hashed
	// lookup beats comparing tags way by way.
	index      []int32
	indexShift uint // 64 - log2(len(index)): home takes the top bits of a hash
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

	S counters
}

// link is one entry of Cache.order: the neighbours of a slot in its set's
// replacement list, as indices into order.
type link struct{ prev, next int32 }

// scanWays is the widest set still searched by comparing tags way by way:
// up to a cache line or two of tags, a scan is cheaper than hashing. The
// PPC601's 8-way and direct-mapped caches scan; the T805's 256-way on-chip
// store goes through the index.
const scanWays = 8

// newCache creates a cache level; the config must validate.
func newCache(cfg Config, rng *pearl.RNG) (*cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lines := cfg.Size / cfg.LineSize
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = lines
	}
	c := &cache{
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
		size := 2
		for size < 2*lines {
			size <<= 1
		}
		c.index = make([]int32, size)
		c.indexShift = uint(64 - bits.TrailingZeros(uint(size)))
		if cfg.Replacement != Random {
			c.order = make([]link, lines+c.nsets)
			c.resetOrder()
		}
	}
	return c, nil
}

// resetOrder empties every set's replacement list.
func (c *cache) resetOrder() {
	for i := len(c.sets); i < len(c.order); i++ {
		c.order[i] = link{prev: int32(i), next: int32(i)}
	}
}

// unlink takes slot i off its set's replacement list.
func (c *cache) unlink(i int) {
	l := c.order[i]
	c.order[l.prev].next = l.next
	c.order[l.next].prev = l.prev
}

// pushBack makes slot i, which is on no list, the last victim of its set.
func (c *cache) pushBack(i int) {
	end := int32(len(c.sets) + i/c.assoc)
	last := c.order[end].prev
	c.order[i] = link{prev: last, next: end}
	c.order[last].next = int32(i)
	c.order[end].prev = int32(i)
}

// used records a use of the valid line in slot i: it stamps the LRU clock
// and, under LRU, moves the line to the back of the replacement list —
// where the line used last already is.
func (c *cache) used(i int) {
	c.sets[i].lastUse = c.clock
	if c.order != nil && c.cfg.Replacement == lru && int(c.order[i].next) < len(c.sets) {
		c.unlink(i)
		c.pushBack(i)
	}
}

// mustNew is newCache for known-good configs (presets, tests).
func mustNew(cfg Config, rng *pearl.RNG) *cache {
	c, err := newCache(cfg, rng)
	if err != nil {
		panic(err)
	}
	return c
}

// lineSize returns the line size in bytes.
func (c *cache) lineSize() uint64 { return uint64(c.cfg.LineSize) }

// lineAddr returns the line address (addr with the offset bits shifted out),
// the canonical line identity used throughout the hierarchy.
func (c *cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// home is the index entry where the probe for a line address starts: the top
// bits of a Fibonacci hash, which spreads sequential and strided line
// addresses alike.
func (c *cache) home(la uint64) int {
	return int((la * 0x9E3779B97F4A7C15) >> c.indexShift)
}

// entry returns the position in index of the line's entry or, when the line
// is not resident, of the empty entry that ends its probe.
func (c *cache) entry(la uint64) int {
	mask := len(c.index) - 1
	for i := c.home(la); ; i = (i + 1) & mask {
		if e := c.index[i]; e == 0 || c.sets[e-1].tag == la {
			return i
		}
	}
}

// unindex empties entry i of index and shifts back the entries of its probe
// run that can no longer be reached past the gap.
func (c *cache) unindex(i int) {
	mask := len(c.index) - 1
	for j := (i + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		// The entry at j stays unless its home is at or before the gap:
		// probes from its home would stop at the empty entry i.
		if e := c.index[j]; (j-c.home(c.sets[e-1].tag))&mask >= (j-i)&mask {
			c.index[i] = e
			i = j
		}
	}
	c.index[i] = 0
}

// find is the one residency lookup: the slot in sets holding the line, or
// -1 when the line is not resident.
func (c *cache) find(la uint64) int {
	if c.index != nil {
		return int(c.index[c.entry(la)]) - 1
	}
	base := int(la&c.setMask) * c.assoc
	for i, ln := range c.sets[base : base+c.assoc] {
		if ln.state != invalid && ln.tag == la {
			return base + i
		}
	}
	return -1
}

// lookup finds the line (by line address) and refreshes its LRU position.
// It returns nil on miss. lookup does not update hit/miss counters; the
// hierarchy does, so that probes (snoops) don't pollute demand statistics.
func (c *cache) lookup(la uint64) *state {
	i := c.find(la)
	if i < 0 {
		return nil
	}
	c.clock++
	c.used(i)
	return &c.sets[i].state
}

// probe finds the line without touching replacement state (used by snoops
// and tests).
func (c *cache) probe(la uint64) (state, bool) {
	if i := c.find(la); i >= 0 {
		return c.sets[i].state, true
	}
	return invalid, false
}

// victim describes a line displaced by insert.
type victim struct {
	LineAddr uint64
	State    state
}

// insert places the line (by line address) in the given state, evicting a
// victim if the set is full. It reports the victim, if any. Inserting a line
// that is already present just overwrites its state.
func (c *cache) insert(la uint64, st state) (victim, bool) {
	if st == invalid {
		panic("cache: inserting invalid line")
	}
	c.clock++
	if i := c.find(la); i >= 0 {
		c.sets[i].state = st
		c.used(i)
		return victim{}, false
	}
	setIdx := int(la & c.setMask)
	base := setIdx * c.assoc
	set := c.sets[base : base+c.assoc]
	var v victim
	var way int
	evict := int(c.valid[setIdx]) == c.assoc
	if evict {
		if c.order != nil {
			way = int(c.order[len(c.sets)+setIdx].next) - base
			c.unlink(base + way)
		} else {
			way = c.pickVictim(set)
		}
		v = victim{LineAddr: set[way].tag, State: set[way].state}
		c.S.Evictions.Inc()
		if v.State == modified {
			c.S.Writebacks.Inc()
		}
		if c.index != nil {
			c.unindex(c.entry(v.LineAddr))
		}
	} else {
		for set[way].state != invalid { // the lowest free way
			way++
		}
		c.valid[setIdx]++
	}
	set[way] = line{tag: la, state: st, lastUse: c.clock, loadedAt: c.clock}
	if c.index != nil {
		c.index[c.entry(la)] = int32(base + way + 1)
	}
	if c.order != nil {
		c.pushBack(base + way)
	}
	return v, evict
}

// pickVictim scans a full set for the way to replace.
func (c *cache) pickVictim(set []line) int {
	switch c.cfg.Replacement {
	case fifo:
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

// invalidate removes the line if present, reporting its prior state.
func (c *cache) invalidate(la uint64) (state, bool) {
	i := c.find(la)
	if i < 0 {
		return invalid, false
	}
	st := c.sets[i].state
	c.sets[i].state = invalid
	c.valid[la&c.setMask]--
	if c.index != nil {
		c.unindex(c.entry(la))
	}
	if c.order != nil {
		c.unlink(i)
	}
	return st, true
}

// setState changes the state of a present line; it reports whether the line
// was found.
func (c *cache) setState(la uint64, st state) bool {
	if st == invalid {
		panic("cache: SetState to Invalid; use Invalidate")
	}
	i := c.find(la)
	if i < 0 {
		return false
	}
	c.sets[i].state = st
	return true
}

// hitRatio returns hits/(hits+misses).
func (c *cache) hitRatio() float64 {
	h, m := c.S.Hits.Value(), c.S.Misses.Value()
	return stats.Ratio(h, h+m)
}

// statsSet reports the cache counters as a metric set.
func (c *cache) statsSet() *stats.Set {
	s := stats.NewSet(c.cfg.Name)
	s.PutUint("hits", c.S.Hits.Value(), "")
	s.PutUint("misses", c.S.Misses.Value(), "")
	s.Put("hit ratio", c.hitRatio(), "")
	s.PutUint("evictions", c.S.Evictions.Value(), "")
	s.PutUint("writebacks", c.S.Writebacks.Value(), "")
	s.PutUint("back invalidations", c.S.BackInvalidates.Value(), "")
	s.PutUint("snoop invalidations", c.S.SnoopInvalidates.Value(), "")
	s.PutUint("snoop downgrades", c.S.SnoopDowngrades.Value(), "")
	s.PutUint("snoop supplies", c.S.SnoopSupplies.Value(), "")
	s.PutUint("upgrades", c.S.Upgrades.Value(), "")
	return s
}
