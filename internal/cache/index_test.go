package cache

import (
	"fmt"
	"testing"

	"mermaid/internal/pearl"
)

// refCache is the residency logic as it was before the index: every
// operation scans the set way by way, Insert looks for a free way by
// scanning too. It is the reference the indexed Cache is checked against —
// same hits, same way placement, same victims, same clocks, same random
// draws — and deliberately shares no code with it.
type refCache struct {
	assoc     int
	setMask   uint64
	sets      []line
	clock     uint64
	repl      Replacement
	rng       *pearl.RNG
	evictions uint64
	writeback uint64
}

func newRef(c *cache, rng *pearl.RNG) *refCache {
	return &refCache{
		assoc: c.assoc, setMask: c.setMask, sets: make([]line, len(c.sets)),
		repl: c.cfg.Replacement, rng: rng,
	}
}

func (r *refCache) set(la uint64) []line {
	idx := int(la & r.setMask)
	return r.sets[idx*r.assoc : (idx+1)*r.assoc]
}

func (r *refCache) lookup(la uint64) *state {
	set := r.set(la)
	for i := range set {
		if set[i].state != invalid && set[i].tag == la {
			r.clock++
			set[i].lastUse = r.clock
			return &set[i].state
		}
	}
	return nil
}

func (r *refCache) probe(la uint64) (state, bool) {
	set := r.set(la)
	for i := range set {
		if set[i].state != invalid && set[i].tag == la {
			return set[i].state, true
		}
	}
	return invalid, false
}

func (r *refCache) insert(la uint64, st state) (victim, bool) {
	set := r.set(la)
	r.clock++
	for i := range set {
		if set[i].state != invalid && set[i].tag == la {
			set[i].state = st
			set[i].lastUse = r.clock
			return victim{}, false
		}
	}
	for i := range set {
		if set[i].state == invalid {
			set[i] = line{tag: la, state: st, lastUse: r.clock, loadedAt: r.clock}
			return victim{}, false
		}
	}
	vi := 0
	switch r.repl {
	case fifo:
		for i := 1; i < len(set); i++ {
			if set[i].loadedAt < set[vi].loadedAt {
				vi = i
			}
		}
	case Random:
		vi = r.rng.Intn(len(set))
	default:
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[vi].lastUse {
				vi = i
			}
		}
	}
	v := victim{LineAddr: set[vi].tag, State: set[vi].state}
	set[vi] = line{tag: la, state: st, lastUse: r.clock, loadedAt: r.clock}
	r.evictions++
	if v.State == modified {
		r.writeback++
	}
	return v, true
}

func (r *refCache) invalidate(la uint64) (state, bool) {
	set := r.set(la)
	for i := range set {
		if set[i].state != invalid && set[i].tag == la {
			st := set[i].state
			set[i].state = invalid
			return st, true
		}
	}
	return invalid, false
}

func (r *refCache) setState(la uint64, st state) bool {
	set := r.set(la)
	for i := range set {
		if set[i].state != invalid && set[i].tag == la {
			set[i].state = st
			return true
		}
	}
	return false
}

// checkOrder holds the replacement lists of wide sets to the lines: each
// set's list threads exactly its valid lines, oldest clock first, so its head
// is the way the reference's scan would pick.
func checkOrder(t *testing.T, c *cache, op int) {
	t.Helper()
	for set := 0; set < c.nsets; set++ {
		end := int32(len(c.sets) + set)
		n, last, prev := 0, uint64(0), end
		for i := c.order[end].next; i != end; i = c.order[i].next {
			ln := c.sets[i]
			key := ln.lastUse
			if c.cfg.Replacement == fifo {
				key = ln.loadedAt
			}
			if int(i)/c.assoc != set || ln.state == invalid || key <= last || c.order[i].prev != prev {
				t.Fatalf("op %d, set %d: list entry %d (%+v, links %+v) after clock %d and entry %d", op, set, i, ln, c.order[i], last, prev)
			}
			n, last, prev = n+1, key, i
		}
		if n != int(c.valid[set]) || c.order[end].prev != prev {
			t.Fatalf("op %d, set %d: list threads %d lines and ends at %d, set holds %d and the sentinel says %d", op, set, n, prev, c.valid[set], c.order[end].prev)
		}
	}
}

// indexed counts the lines the residency table holds.
func indexed(c *cache) int {
	n := 0
	for _, e := range c.index {
		if e != 0 {
			n++
		}
	}
	return n
}

// TestIndexedMatchesLinearScan drives the cache and the reference with the
// same random operation stream, on both sides of scanWays, and compares
// every return value as it goes and the whole line array at the end. Sets
// wider than scanWays take their victims from a replacement list, not from a
// scan: Lookup, Insert over a present line, SetState, Invalidate and Flush
// all land between two evictions of the same set, and the list is checked
// against the lines throughout.
//
// A fully-associative 16-line cache, whose residency table has 32 entries,
// is driven over line addresses that all hash to its last two entries and
// its first two: probe runs collide, wrap the table's end, and are cut and
// shifted back by every eviction and Invalidate. Its table is checked
// against Occupancy after every operation.
func TestIndexedMatchesLinearScan(t *testing.T) {
	const lines = 512
	for _, repl := range []Replacement{lru, fifo, Random} {
		for _, assoc := range []int{1, 8, 16, 64, 256} {
			t.Run(fmt.Sprintf("%s/%d-way", repl, assoc), func(t *testing.T) {
				cfg := Config{Name: "t", Size: lines * 16, LineSize: 16, Assoc: assoc, Replacement: repl}
				r := pearl.NewRNG(uint64(assoc)*10 + uint64(repl))
				// Twice the capacity in distinct lines: sets fill, evict and —
				// through Invalidate — regain free ways below valid ones.
				matchRef(t, cfg, func() uint64 { return uint64(r.Intn(2 * lines)) }, r, false)
			})
		}
		t.Run(fmt.Sprintf("%s/fully-associative-16", repl), func(t *testing.T) {
			cfg := Config{Name: "t", Size: 16 * 16, LineSize: 16, Replacement: repl}
			c := mustNew(cfg, nil)
			if len(c.index) != 32 {
				t.Fatalf("residency table of %d entries for 16 lines, want 32", len(c.index))
			}
			var pool []uint64
			for la := uint64(0); len(pool) < 32; la++ {
				if h := c.home(la); h >= 30 || h <= 1 {
					pool = append(pool, la)
				}
			}
			r := pearl.NewRNG(7 + uint64(repl))
			matchRef(t, cfg, func() uint64 { return pool[r.Intn(len(pool))] }, r, true)
		})
	}
}

// matchRef drives a cache built from cfg and the reference through the same
// 60,000 random operations on the line addresses addr draws, comparing every
// answer. With everyOp the residency table is checked against occupancy
// after each operation.
func matchRef(t *testing.T, cfg Config, addr func() uint64, r *pearl.RNG, everyOp bool) {
	t.Helper()
	states := []state{shared, exclusive, modified}
	c := mustNew(cfg, pearl.NewRNG(99))
	if (c.index != nil) != (c.assoc > scanWays) {
		t.Fatalf("index present: %v at %d ways (scanWays %d)", c.index != nil, c.assoc, scanWays)
	}
	if (c.order != nil) != (c.assoc > scanWays && cfg.Replacement != Random) {
		t.Fatalf("replacement list present: %v at %d ways, %s", c.order != nil, c.assoc, cfg.Replacement)
	}
	ref := newRef(c, pearl.NewRNG(99))
	for op := 0; op < 60000; op++ {
		if c.order != nil && op%500 == 0 {
			checkOrder(t, c, op)
		}
		la := addr()
		what := r.Intn(100)
		switch {
		case what < 35:
			got, want := c.lookup(la), ref.lookup(la)
			if (got == nil) != (want == nil) || (got != nil && *got != *want) {
				t.Fatalf("op %d: Lookup(%d) = %v, reference %v", op, la, got, want)
			}
		case what < 70:
			st := states[r.Intn(len(states))]
			gv, gh := c.insert(la, st)
			wv, wh := ref.insert(la, st)
			if gv != wv || gh != wh {
				t.Fatalf("op %d: Insert(%d, %v) = %v,%v, reference %v,%v", op, la, st, gv, gh, wv, wh)
			}
		case what < 85:
			gs, gok := c.invalidate(la)
			ws, wok := ref.invalidate(la)
			if gs != ws || gok != wok {
				t.Fatalf("op %d: Invalidate(%d) = %v,%v, reference %v,%v", op, la, gs, gok, ws, wok)
			}
		case what < 92:
			st := states[r.Intn(len(states))]
			if got, want := c.setState(la, st), ref.setState(la, st); got != want {
				t.Fatalf("op %d: SetState(%d, %v) = %v, reference %v", op, la, st, got, want)
			}
		default:
			gs, gok := c.probe(la)
			ws, wok := ref.probe(la)
			if gs != ws || gok != wok {
				t.Fatalf("op %d: Probe(%d) = %v,%v, reference %v,%v", op, la, gs, gok, ws, wok)
			}
		}
		if everyOp {
			if n, occ := indexed(c), occupancy(c); n != occ {
				t.Fatalf("op %d: residency table holds %d lines, cache %d", op, n, occ)
			}
		}
	}
	for i := range c.sets {
		if c.sets[i] != ref.sets[i] && (c.sets[i].state != invalid || ref.sets[i].state != invalid) {
			t.Fatalf("slot %d holds %+v, reference %+v", i, c.sets[i], ref.sets[i])
		}
	}
	if c.clock != ref.clock {
		t.Errorf("clock %d, reference %d", c.clock, ref.clock)
	}
	if e, w := c.S.Evictions.Value(), c.S.Writebacks.Value(); e != ref.evictions || w != ref.writeback {
		t.Errorf("%d evictions, %d writebacks; reference %d, %d", e, w, ref.evictions, ref.writeback)
	}
	if ref.evictions == 0 {
		t.Error("the stream never evicted: victim choice is untested")
	}
	if got, want := c.rng.Uint64(), ref.rng.Uint64(); got != want {
		t.Error("random streams diverged: a different number of victim draws")
	}
	// The bookkeeping the index adds agrees with the lines.
	occ := 0
	for set := 0; set < c.nsets; set++ {
		n := 0
		for _, ln := range c.sets[set*c.assoc : (set+1)*c.assoc] {
			if ln.state != invalid {
				n++
			}
		}
		if int(c.valid[set]) != n {
			t.Fatalf("set %d: valid count %d, %d valid lines", set, c.valid[set], n)
		}
		occ += n
	}
	if c.index != nil && indexed(c) != occ {
		t.Errorf("index holds %d lines, cache %d", indexed(c), occ)
	}
	if c.order != nil {
		checkOrder(t, c, -1)
	}
}
