package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"mermaid/internal/pearl"
)

func cfg64(size int) Config {
	return Config{Name: "t", Size: size, LineSize: 64, Assoc: 2, HitLatency: 1}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Name: "a", Size: 1024, LineSize: 32, Assoc: 2},
		{Name: "b", Size: 4096, LineSize: 64, Assoc: 0}, // fully associative
		{Name: "c", Size: 64, LineSize: 64, Assoc: 1},
	}
	for _, c := range good {
		if err := c.validate(); err != nil {
			t.Errorf("%s: unexpected error %v", c.Name, err)
		}
	}
	bad := []Config{
		{Name: "zero", Size: 0, LineSize: 32},
		{Name: "npot-line", Size: 1024, LineSize: 48, Assoc: 1},
		{Name: "frac", Size: 1000, LineSize: 64, Assoc: 1},
		{Name: "assoc", Size: 1024, LineSize: 64, Assoc: 3},
		{Name: "neg-lat", Size: 1024, LineSize: 64, Assoc: 1, HitLatency: -1},
	}
	for _, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("%s: expected error", c.Name)
		}
	}
}

func TestLookupInsert(t *testing.T) {
	c := mustNew(cfg64(1024), nil)
	la := c.lineAddr(0x1000)
	if c.lookup(la) != nil {
		t.Fatal("hit on empty cache")
	}
	if v, had := c.insert(la, exclusive); had {
		t.Fatalf("victim %v from empty set", v)
	}
	st := c.lookup(la)
	if st == nil || *st != exclusive {
		t.Fatal("line not found after insert")
	}
	// Reinsert updates state in place.
	if _, had := c.insert(la, modified); had {
		t.Fatal("reinsert produced victim")
	}
	if got, _ := c.probe(la); got != modified {
		t.Fatalf("state = %v, want M", got)
	}
	if occupancy(c) != 1 {
		t.Fatalf("occupancy = %d", occupancy(c))
	}
}

func TestSetConflictEviction(t *testing.T) {
	// 1024 B / 64 B lines / assoc 2 = 8 sets. Addresses 64*8 apart collide.
	c := mustNew(cfg64(1024), nil)
	stride := uint64(64 * 8)
	a0, a1, a2 := uint64(0), stride, 2*stride
	c.insert(c.lineAddr(a0), exclusive)
	c.insert(c.lineAddr(a1), exclusive)
	v, had := c.insert(c.lineAddr(a2), exclusive)
	if !had {
		t.Fatal("expected eviction from full set")
	}
	if v.LineAddr != c.lineAddr(a0) {
		t.Fatalf("LRU victim = %#x, want oldest %#x", v.LineAddr, c.lineAddr(a0))
	}
}

func TestLRUTouchChangesVictim(t *testing.T) {
	c := mustNew(cfg64(1024), nil)
	stride := uint64(64 * 8)
	c.insert(c.lineAddr(0), exclusive)
	c.insert(c.lineAddr(stride), exclusive)
	c.lookup(c.lineAddr(0)) // refresh line 0
	v, had := c.insert(c.lineAddr(2*stride), exclusive)
	if !had || v.LineAddr != c.lineAddr(stride) {
		t.Fatalf("victim = %+v, want line at %#x", v, stride)
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	cfg := cfg64(1024)
	cfg.Replacement = fifo
	c := mustNew(cfg, nil)
	stride := uint64(64 * 8)
	c.insert(c.lineAddr(0), exclusive)
	c.insert(c.lineAddr(stride), exclusive)
	c.lookup(c.lineAddr(0)) // FIFO must not care
	v, had := c.insert(c.lineAddr(2*stride), exclusive)
	if !had || v.LineAddr != c.lineAddr(0) {
		t.Fatalf("victim = %+v, want first-in line 0", v)
	}
}

func TestRandomReplacementStaysInSet(t *testing.T) {
	cfg := cfg64(1024)
	cfg.Replacement = Random
	c := mustNew(cfg, pearl.NewRNG(1))
	stride := uint64(64 * 8)
	c.insert(c.lineAddr(0), exclusive)
	c.insert(c.lineAddr(stride), exclusive)
	v, had := c.insert(c.lineAddr(2*stride), exclusive)
	if !had {
		t.Fatal("expected eviction")
	}
	if v.LineAddr != c.lineAddr(0) && v.LineAddr != c.lineAddr(stride) {
		t.Fatalf("victim %#x not from the conflicting set", v.LineAddr)
	}
}

func TestDirtyVictimCounted(t *testing.T) {
	c := mustNew(cfg64(1024), nil)
	stride := uint64(64 * 8)
	c.insert(c.lineAddr(0), modified)
	c.insert(c.lineAddr(stride), exclusive)
	v, _ := c.insert(c.lineAddr(2*stride), exclusive)
	if v.State != modified {
		t.Fatalf("victim state = %v, want M", v.State)
	}
	if c.S.Writebacks.Value() != 1 || c.S.Evictions.Value() != 1 {
		t.Fatalf("writebacks=%d evictions=%d", c.S.Writebacks.Value(), c.S.Evictions.Value())
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(cfg64(1024), nil)
	la := c.lineAddr(0x40)
	c.insert(la, modified)
	st, ok := c.invalidate(la)
	if !ok || st != modified {
		t.Fatalf("Invalidate = %v, %v", st, ok)
	}
	if _, ok := c.probe(la); ok {
		t.Fatal("line still present")
	}
	if _, ok := c.invalidate(la); ok {
		t.Fatal("double invalidate reported found")
	}
}

func TestSetState(t *testing.T) {
	c := mustNew(cfg64(1024), nil)
	la := c.lineAddr(0)
	if c.setState(la, shared) {
		t.Fatal("SetState on absent line succeeded")
	}
	c.insert(la, exclusive)
	if !c.setState(la, shared) {
		t.Fatal("SetState failed")
	}
	if st, _ := c.probe(la); st != shared {
		t.Fatalf("state = %v", st)
	}
}

func TestFullyAssociative(t *testing.T) {
	c := mustNew(Config{Name: "fa", Size: 256, LineSize: 64, Assoc: 0}, nil)
	// 4 lines; any 4 addresses coexist regardless of bits.
	for i := uint64(0); i < 4; i++ {
		c.insert(c.lineAddr(i*0x10000), exclusive)
	}
	if occupancy(c) != 4 {
		t.Fatalf("occupancy = %d, want 4", occupancy(c))
	}
	if _, had := c.insert(c.lineAddr(5*0x10000), exclusive); !had {
		t.Fatal("fifth line should evict")
	}
}

func TestFootprintIndependentOfLineSize(t *testing.T) {
	small := mustNew(Config{Name: "s", Size: 1 << 14, LineSize: 16, Assoc: 2}, nil)
	big := mustNew(Config{Name: "b", Size: 1 << 20, LineSize: 1024, Assoc: 2}, nil)
	// Same number of lines -> same host state, though capacities differ 64x:
	// caches hold tags, not data (paper §6), so a line record is a tag,
	// a state and two clocks whatever the simulated line size.
	if len(small.sets) != len(big.sets) || unsafe.Sizeof(line{}) > 32 {
		t.Fatalf("lines %d vs %d, %d bytes per line", len(small.sets), len(big.sets), unsafe.Sizeof(line{}))
	}
}

func TestHitRatio(t *testing.T) {
	c := mustNew(cfg64(1024), nil)
	c.S.Hits.Add(3)
	c.S.Misses.Add(1)
	if c.hitRatio() != 0.75 {
		t.Fatalf("hit ratio = %v", c.hitRatio())
	}
}

// Property: occupancy never exceeds the line count, and a just-inserted line
// is always found.
func TestCacheOccupancyProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := mustNew(Config{Name: "p", Size: 512, LineSize: 32, Assoc: 2}, nil)
		maxLines := 512 / 32
		for _, a := range addrs {
			la := c.lineAddr(uint64(a))
			c.insert(la, exclusive)
			if occupancy(c) > maxLines {
				return false
			}
			if st := c.lookup(la); st == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a victim reported by Insert is no longer present.
func TestVictimGoneProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := mustNew(Config{Name: "p", Size: 256, LineSize: 32, Assoc: 2}, nil)
		for _, a := range addrs {
			v, had := c.insert(c.lineAddr(uint64(a)*32), exclusive)
			if had {
				if _, still := c.probe(v.LineAddr); still {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// occupancy returns the number of valid lines of c.
func occupancy(c *cache) int {
	n := 0
	for i := range c.sets {
		if c.sets[i].state != invalid {
			n++
		}
	}
	return n
}
