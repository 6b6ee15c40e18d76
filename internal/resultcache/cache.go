// Package resultcache is the content-addressed store behind the simulation
// server. The workbench is deterministic by construction — reports,
// timelines and bottleneck analyses are byte-identical at any worker or
// shard count — so the triple (configuration hash, workload hash, seed)
// completely determines a run's artifacts. That makes finished artifacts
// cacheable forever: a repeated sweep point, or the same study submitted by
// a second user, is served from memory without touching a kernel. The cache
// is what makes heavy traffic from many users cheap.
//
// An entry holds what every job needs: the report. The metrics exposition,
// the timeline and the bottleneck analysis are not stored; the server
// re-derives them per GET by running the simulation again, at the cost of
// one simulation each, and determinism makes those bytes the first run's.
package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"sync"
	"sync/atomic"
)

// Key addresses one deterministic run: the machine configuration hash
// (machine.Config.Hash), the workload description hash
// (machine.CanonicalJSONHash over the effective description, its defaults
// written back), and the seed the run executes with. Equal keys imply
// byte-identical artifacts.
type Key struct {
	Config   string
	Workload string
	Seed     uint64
}

// ID returns the cache address: the SHA-256 over an unambiguous encoding
// of the triple, as hex. Component hashes are length-delimited, so no two
// distinct triples share an encoding.
func (k Key) ID() string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(k.Config)))
	h.Write(n[:])
	io.WriteString(h, k.Config) //nolint:errcheck // hash writes cannot fail
	binary.LittleEndian.PutUint64(n[:], uint64(len(k.Workload)))
	h.Write(n[:])
	io.WriteString(h, k.Workload) //nolint:errcheck
	binary.LittleEndian.PutUint64(n[:], k.Seed)
	h.Write(n[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Entry holds the stored artifacts of one run, exactly as the server's
// endpoints deliver them: a cache hit serves bytes equal to what the
// original run produced. The server stores the report only: it re-derives
// the metrics, the timeline and the bottleneck analysis per GET and retains
// nothing of them.
type Entry struct {
	// Report is the rendered text report (GET /jobs/{id}/report).
	Report []byte
	// Metrics, Timeline and Bottleneck are left empty by the server. They
	// remain only because the benchmark's cache probe (benchmark/probes.go)
	// sizes its entries with them; they go when that probe next changes.
	Metrics    []byte
	Timeline   []byte
	Bottleneck []byte
	// Cycles and Events are the run's simulated volume, for progress
	// reporting on cache hits.
	Cycles int64
	Events uint64
}

// size returns the entry's artifact payload in bytes, the unit the cache's
// byte gauge accounts in.
func (e *Entry) size() uint64 {
	return uint64(len(e.Report) + len(e.Metrics) + len(e.Timeline) + len(e.Bottleneck))
}

// Cache is a bounded in-memory LRU of run artifacts, safe for concurrent
// use by HTTP handlers and farm workers. Its hit, miss and eviction counts,
// entries and bytes are read by the server's /metrics endpoint.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	byID  map[string]*list.Element
	bytes uint64 // total artifact bytes of resident entries; guarded by mu

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type lruItem struct {
	id string
	e  Entry
}

// New returns a cache holding at most max entries (values below 1 mean 1).
func New(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{max: max, ll: list.New(), byID: make(map[string]*list.Element)}
}

// Get returns the artifacts stored under the key, counting a hit or a miss
// and refreshing the entry's recency.
func (c *Cache) Get(k Key) (Entry, bool) {
	id := k.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		c.misses.Add(1)
		return Entry{}, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).e, true
}

// Put stores the artifacts under the key, evicting the least recently used
// entry beyond capacity. Storing an existing key refreshes its artifacts
// and recency (determinism means the bytes can only be identical anyway).
func (c *Cache) Put(k Key, e Entry) {
	id := k.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		item := el.Value.(*lruItem)
		c.bytes += e.size() - item.e.size()
		item.e = e
		c.ll.MoveToFront(el)
		return
	}
	c.byID[id] = c.ll.PushFront(&lruItem{id: id, e: e})
	c.bytes += e.size()
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		item := last.Value.(*lruItem)
		delete(c.byID, item.id)
		c.bytes -= item.e.size()
		c.evictions.Add(1)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits returns the number of Gets that found their key.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of Gets that did not.
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// Evictions returns the number of entries dropped to capacity.
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }

// Bytes returns the total artifact bytes of resident entries — the cache's
// memory footprint, excluding bookkeeping.
func (c *Cache) Bytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
