package resultcache

import (
	"strings"
	"sync"
	"testing"
)

func TestKeyID(t *testing.T) {
	a := Key{Config: "c1", Workload: "w1", Seed: 7}
	if a.ID() != a.ID() {
		t.Fatal("key ID not deterministic")
	}
	variants := []Key{
		{Config: "c2", Workload: "w1", Seed: 7},
		{Config: "c1", Workload: "w2", Seed: 7},
		{Config: "c1", Workload: "w1", Seed: 8},
		// The length-delimited encoding must keep component boundaries
		// unambiguous: moving a byte across the config/workload boundary
		// is a different triple.
		{Config: "c1w", Workload: "1", Seed: 7},
	}
	for _, v := range variants {
		if v.ID() == a.ID() {
			t.Errorf("distinct keys %+v and %+v share an ID", a, v)
		}
	}
	if len(a.ID()) != 64 || strings.ToLower(a.ID()) != a.ID() {
		t.Errorf("ID is not lowercase sha256 hex: %q", a.ID())
	}
}

func TestCacheHitMissAndCounters(t *testing.T) {
	c := New(8)
	k := Key{Config: "c", Workload: "w", Seed: 1}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, Entry{Report: []byte("report"), Cycles: 42, Events: 7})
	e, ok := c.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if string(e.Report) != "report" || e.Cycles != 42 || e.Events != 7 {
		t.Errorf("entry corrupted: %+v", e)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	k := func(i int) Key { return Key{Config: "c", Seed: uint64(i)} }
	c.Put(k(1), Entry{})
	c.Put(k(2), Entry{})
	if _, ok := c.Get(k(1)); !ok { // refresh 1: now 2 is least recent
		t.Fatal("entry 1 missing")
	}
	c.Put(k(3), Entry{})
	if _, ok := c.Get(k(2)); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("recently used entry was evicted")
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("len/evictions = %d/%d, want 2/1", c.Len(), c.Evictions())
	}
}

// The cache serves HTTP handlers and farm workers at once.
func TestCacheConcurrent(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Config: "c", Seed: uint64((w + i) % 32)}
				if i%3 == 0 {
					c.Put(k, Entry{Cycles: int64(i)})
				} else {
					c.Get(k)
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("cache overflowed capacity: %d", c.Len())
	}
}

// TestCacheBytes checks the byte gauge tracks stores, replacements and
// evictions.
func TestCacheBytes(t *testing.T) {
	c := New(2)
	k := func(i int) Key { return Key{Config: "c", Seed: uint64(i)} }
	ent := func(n int) Entry {
		return Entry{Report: make([]byte, n), Metrics: make([]byte, n)}
	}
	if c.Bytes() != 0 {
		t.Fatalf("empty cache reports %d bytes", c.Bytes())
	}
	c.Put(k(1), ent(100)) // 200 B
	c.Put(k(2), ent(50))  // +100 B
	if got := c.Bytes(); got != 300 {
		t.Errorf("Bytes = %d, want 300", got)
	}
	c.Put(k(1), ent(10)) // replace: 200 -> 20
	if got := c.Bytes(); got != 120 {
		t.Errorf("Bytes after replace = %d, want 120", got)
	}
	c.Put(k(3), ent(5)) // evicts k(2): +10 -100
	if got := c.Bytes(); got != 30 {
		t.Errorf("Bytes after eviction = %d, want 30", got)
	}
}
