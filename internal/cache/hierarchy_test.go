package cache

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mermaid/internal/bus"
	"mermaid/internal/memory"
	"mermaid/internal/pearl"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
)

func testBus() bus.Config { return bus.Config{Width: 8, ArbitrationDelay: 1} }
func testMem() memory.Config {
	return memory.Config{ReadLatency: 5, WriteLatency: 5, BytesPerCycle: 8, Ports: 1}
}
func l1cfg(w WritePolicy) Config {
	return Config{Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 1, Write: w}
}

func uniConfig(w WritePolicy) HierarchyConfig {
	return HierarchyConfig{
		CPUs:    1,
		Private: []Config{l1cfg(w)},
		Bus:     testBus(),
		Memory:  testMem(),
	}
}

func smpConfig(cpus int, coh Coherence) HierarchyConfig {
	return HierarchyConfig{
		CPUs:                cpus,
		Private:             []Config{l1cfg(WriteBack)},
		Coherence:           coh,
		CacheToCacheLatency: 2,
		DirLookupLatency:    2,
		DirMessageLatency:   3,
		Bus:                 testBus(),
		Memory:              testMem(),
	}
}

// drive runs body inside a single simulation process and returns the final
// virtual time.
func drive(t *testing.T, h *Hierarchy, k *pearl.Kernel, body func(p *pearl.Process)) pearl.Time {
	t.Helper()
	k.Spawn("driver", body)
	return k.Run()
}

func mustHierarchy(t *testing.T, k *pearl.Kernel, cfg HierarchyConfig) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(sim.Env{Kernel: k, RNG: pearl.NewRNG(1)}, "node", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestValidateHierarchy(t *testing.T) {
	bad := []HierarchyConfig{
		{CPUs: 0},
		// multiple CPUs with private caches but no coherence
		{CPUs: 2, Private: []Config{l1cfg(WriteBack)}, Bus: testBus(), Memory: testMem()},
		// coherence without private caches
		{CPUs: 2, Coherence: Snoopy, Bus: testBus(), Memory: testMem()},
		// coherence with write-through outer level
		{CPUs: 2, Private: []Config{l1cfg(WriteThrough)}, Coherence: Snoopy, Bus: testBus(), Memory: testMem()},
		// shrinking line size with depth
		{CPUs: 1, Private: []Config{
			{Size: 1024, LineSize: 64, Assoc: 2},
			{Size: 4096, LineSize: 32, Assoc: 2},
		}, Bus: testBus(), Memory: testMem()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestUniprocessorMissThenHit(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, uniConfig(WriteBack))
	pt := h.Port(0)
	var missT, hitT pearl.Time
	drive(t, h, k, func(p *pearl.Process) {
		start := p.Now()
		pt.Access(p, Read, 0x1000, 4)
		missT = p.Now() - start
		start = p.Now()
		pt.Access(p, Read, 0x1004, 4) // same line
		hitT = p.Now() - start
	})
	// Miss: L1 lookup (1) + arbitration (1) + DRAM 5+64/8 (13) + bus 64/8 (8) = 23.
	if missT != 23 {
		t.Errorf("miss latency = %d, want 23", missT)
	}
	if hitT != 1 {
		t.Errorf("hit latency = %d, want 1", hitT)
	}
	l1 := h.PrivateCache(0, 0)
	if l1.S.Hits.Value() != 1 || l1.S.Misses.Value() != 1 {
		t.Errorf("hits=%d misses=%d", l1.S.Hits.Value(), l1.S.Misses.Value())
	}
	if h.Memory().Reads() != 1 {
		t.Errorf("memory reads = %d, want 1", h.Memory().Reads())
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, uniConfig(WriteBack))
	pt := h.Port(0)
	stride := uint64(64 * 8) // set-conflicting stride (8 sets)
	drive(t, h, k, func(p *pearl.Process) {
		pt.Access(p, Write, 0, 4)       // line 0 -> M
		pt.Access(p, Read, stride, 4)   // fills way 2
		pt.Access(p, Read, 2*stride, 4) // evicts dirty line 0
	})
	if h.Memory().Writes() != 1 {
		t.Errorf("memory writes = %d, want 1 (dirty write-back)", h.Memory().Writes())
	}
	if h.busWB.Value() != 1 {
		t.Errorf("write-back transactions = %d, want 1", h.busWB.Value())
	}
	if _, ok := h.PrivateCache(0, 0).Probe(0); ok {
		t.Error("evicted line still present")
	}
}

func TestWriteThroughStoresReachMemory(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, uniConfig(WriteThrough))
	pt := h.Port(0)
	drive(t, h, k, func(p *pearl.Process) {
		pt.Access(p, Read, 0x40, 4)  // allocate the line
		pt.Access(p, Write, 0x40, 4) // WT hit: store goes to memory
		pt.Access(p, Write, 0x80, 4) // WT miss: store goes to memory, no allocate
	})
	if h.Memory().Writes() != 2 {
		t.Errorf("memory writes = %d, want 2", h.Memory().Writes())
	}
	l1 := h.PrivateCache(0, 0)
	if st, ok := l1.Probe(l1.LineAddr(0x40)); !ok || st == Modified {
		t.Errorf("WT line state = %v, %v; want clean present", st, ok)
	}
	if _, ok := l1.Probe(l1.LineAddr(0x80)); ok {
		t.Error("WT write miss must not allocate")
	}
}

func TestTwoLevelPrivateInclusion(t *testing.T) {
	cfg := HierarchyConfig{
		CPUs: 1,
		Private: []Config{
			{Size: 512, LineSize: 32, Assoc: 1, HitLatency: 1, Write: WriteBack},
			{Size: 4096, LineSize: 64, Assoc: 2, HitLatency: 4, Write: WriteBack},
		},
		Bus:    testBus(),
		Memory: testMem(),
	}
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, cfg)
	pt := h.Port(0)
	var l2HitT pearl.Time
	drive(t, h, k, func(p *pearl.Process) {
		pt.Access(p, Read, 0x1000, 4) // miss both, fill both
		// Conflict line 0x1000 out of L1 (direct-mapped, 16 sets, stride 512).
		pt.Access(p, Read, 0x1000+512, 4)
		start := p.Now()
		pt.Access(p, Read, 0x1000, 4) // L1 miss, L2 hit
		l2HitT = p.Now() - start
	})
	// L1 (1) + L2 (4) hit: no bus or memory involvement.
	if l2HitT != 5 {
		t.Errorf("L2 hit latency = %d, want 5", l2HitT)
	}
	if h.Memory().Reads() != 2 {
		t.Errorf("memory reads = %d, want 2", h.Memory().Reads())
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	// Tiny L2 (direct-mapped, 2 lines) over larger L1 forces L2 victims whose
	// L1 copies must be dropped.
	cfg := HierarchyConfig{
		CPUs: 1,
		Private: []Config{
			{Size: 1024, LineSize: 64, Assoc: 0, HitLatency: 1, Write: WriteBack}, // fully assoc, 16 lines
			{Size: 128, LineSize: 64, Assoc: 1, HitLatency: 2, Write: WriteBack},  // 2 lines
		},
		Bus:    testBus(),
		Memory: testMem(),
	}
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, cfg)
	pt := h.Port(0)
	drive(t, h, k, func(p *pearl.Process) {
		pt.Access(p, Read, 0, 4)
		pt.Access(p, Read, 128, 4) // L2 set 0 again (stride 128 = 2 lines*64): evicts line 0
	})
	l1 := h.PrivateCache(0, 0)
	if _, ok := l1.Probe(l1.LineAddr(0)); ok {
		t.Error("L1 copy survived L2 eviction (inclusion violated)")
	}
	if l1.S.BackInvalidates.Value() == 0 {
		t.Error("back-invalidation not counted")
	}
}

func TestSharedL2(t *testing.T) {
	cfg := uniConfig(WriteBack)
	cfg.Shared = []Config{{Size: 8192, LineSize: 64, Assoc: 4, HitLatency: 4, Write: WriteBack}}
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, cfg)
	pt := h.Port(0)
	var sharedHitT pearl.Time
	drive(t, h, k, func(p *pearl.Process) {
		pt.Access(p, Read, 0, 4)
		pt.Access(p, Read, 512, 4)  // same L1 set (8 sets, 2 ways)
		pt.Access(p, Read, 1024, 4) // third conflicting line evicts line 0
		start := p.Now()
		pt.Access(p, Read, 0, 4) // L1 miss, shared L2 hit
		sharedHitT = p.Now() - start
	})
	// L1 (1) + arb (1) + L2 hit (4) + bus transfer (8) = 14, no memory.
	if sharedHitT != 14 {
		t.Errorf("shared L2 hit latency = %d, want 14", sharedHitT)
	}
	if h.Memory().Reads() != 3 {
		t.Errorf("memory reads = %d, want 3", h.Memory().Reads())
	}
}

func TestSplitL1(t *testing.T) {
	cfg := uniConfig(WriteBack)
	cfg.SplitL1 = true
	cfg.L1I = Config{Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 1, Write: WriteBack}
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, cfg)
	pt := h.Port(0)
	drive(t, h, k, func(p *pearl.Process) {
		pt.Access(p, Fetch, 0x400000, 4)
		pt.Access(p, Read, 0x10000, 4)
	})
	ic, dc := h.InstrCache(0), h.PrivateCache(0, 0)
	if ic.S.Misses.Value() != 1 || ic.Occupancy() != 1 {
		t.Errorf("L1I misses=%d occupancy=%d", ic.S.Misses.Value(), ic.Occupancy())
	}
	if dc.Occupancy() != 1 {
		t.Errorf("L1D occupancy = %d (must not hold instruction line)", dc.Occupancy())
	}
	if _, ok := dc.Probe(dc.LineAddr(0x400000)); ok {
		t.Error("instruction line leaked into L1D")
	}
}

func TestAccessSpanningLines(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, uniConfig(WriteBack))
	pt := h.Port(0)
	drive(t, h, k, func(p *pearl.Process) {
		pt.Access(p, Read, 60, 8) // straddles lines 0 and 1
	})
	l1 := h.PrivateCache(0, 0)
	if l1.S.Misses.Value() != 2 {
		t.Errorf("misses = %d, want 2 (split access)", l1.S.Misses.Value())
	}
}

func TestSnoopyReadAfterRemoteWrite(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, smpConfig(2, Snoopy))
	p0, p1 := h.Port(0), h.Port(1)
	drive(t, h, k, func(p *pearl.Process) {
		p0.Access(p, Write, 0x100, 4) // CPU0: M
		p1.Access(p, Read, 0x100, 4)  // CPU1 read: supply + downgrade
	})
	c0, c1 := h.PrivateCache(0, 0), h.PrivateCache(1, 0)
	la := c0.LineAddr(0x100)
	st0, _ := c0.Probe(la)
	st1, _ := c1.Probe(la)
	if st0 != Shared || st1 != Shared {
		t.Errorf("states = %v/%v, want S/S", st0, st1)
	}
	if h.c2c.Value() != 1 {
		t.Errorf("cache-to-cache supplies = %d, want 1", h.c2c.Value())
	}
	if c0.S.SnoopDowngrades.Value() != 1 {
		t.Errorf("downgrades = %d, want 1", c0.S.SnoopDowngrades.Value())
	}
	// The flush wrote the line back.
	if h.Memory().Writes() != 1 {
		t.Errorf("memory writes = %d, want 1 (flush on supply)", h.Memory().Writes())
	}
}

func TestSnoopyWriteInvalidatesRemote(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, smpConfig(2, Snoopy))
	p0, p1 := h.Port(0), h.Port(1)
	drive(t, h, k, func(p *pearl.Process) {
		p0.Access(p, Read, 0x100, 4)  // CPU0: E
		p1.Access(p, Read, 0x100, 4)  // both: S
		p1.Access(p, Write, 0x100, 4) // CPU1 upgrades; CPU0 invalidated
	})
	c0, c1 := h.PrivateCache(0, 0), h.PrivateCache(1, 0)
	la := c0.LineAddr(0x100)
	if _, ok := c0.Probe(la); ok {
		t.Error("CPU0 copy survived remote write")
	}
	if st, _ := c1.Probe(la); st != Modified {
		t.Errorf("CPU1 state = %v, want M", st)
	}
	if h.busUpgr.Value() != 1 {
		t.Errorf("upgrades = %d, want 1", h.busUpgr.Value())
	}
	if c0.S.SnoopInvalidates.Value() != 1 {
		t.Errorf("snoop invalidations = %d, want 1", c0.S.SnoopInvalidates.Value())
	}
}

func TestSnoopyExclusiveOnSoleRead(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, smpConfig(2, Snoopy))
	p0 := h.Port(0)
	drive(t, h, k, func(p *pearl.Process) {
		p0.Access(p, Read, 0x200, 4)
	})
	c0 := h.PrivateCache(0, 0)
	if st, _ := c0.Probe(c0.LineAddr(0x200)); st != Exclusive {
		t.Errorf("state = %v, want E (no other sharer)", st)
	}
}

func TestSnoopySilentUpgradeFromExclusive(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, smpConfig(2, Snoopy))
	p0 := h.Port(0)
	drive(t, h, k, func(p *pearl.Process) {
		p0.Access(p, Read, 0x200, 4)  // E
		p0.Access(p, Write, 0x200, 4) // E -> M silently, no bus traffic
	})
	if h.busUpgr.Value() != 0 {
		t.Errorf("upgrades = %d, want 0 (E->M is silent)", h.busUpgr.Value())
	}
	c0 := h.PrivateCache(0, 0)
	if st, _ := c0.Probe(c0.LineAddr(0x200)); st != Modified {
		t.Errorf("state = %v, want M", st)
	}
}

func TestDirectorySemanticsMatchSnoopy(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, smpConfig(2, Directory))
	p0, p1 := h.Port(0), h.Port(1)
	drive(t, h, k, func(p *pearl.Process) {
		p0.Access(p, Write, 0x100, 4) // CPU0: M
		p1.Access(p, Read, 0x100, 4)  // intervention: flush + share
		p1.Access(p, Write, 0x100, 4) // invalidation of CPU0
	})
	c0, c1 := h.PrivateCache(0, 0), h.PrivateCache(1, 0)
	la := c0.LineAddr(0x100)
	if _, ok := c0.Probe(la); ok {
		t.Error("CPU0 copy survived remote write")
	}
	if st, _ := c1.Probe(la); st != Modified {
		t.Errorf("CPU1 state = %v, want M", st)
	}
	if h.dirLookups.Value() == 0 || h.dirMsgs.Value() == 0 {
		t.Errorf("directory not exercised: lookups=%d msgs=%d", h.dirLookups.Value(), h.dirMsgs.Value())
	}
}

func TestDirectoryEvictionHint(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, smpConfig(2, Directory))
	p0, p1 := h.Port(0), h.Port(1)
	stride := uint64(64 * 8)
	drive(t, h, k, func(p *pearl.Process) {
		p0.Access(p, Read, 0, 4)
		// Push line 0 out of CPU0 via set conflicts.
		p0.Access(p, Read, stride, 4)
		p0.Access(p, Read, 2*stride, 4)
		// CPU1 writes line 0: directory must not send an invalidation to
		// CPU0 (its copy is gone).
		before := h.dirMsgs.Value()
		p1.Access(p, Write, 0, 4)
		if h.dirMsgs.Value() != before {
			t.Errorf("stale directory entry caused %d messages", h.dirMsgs.Value()-before)
		}
	})
}

func TestCommonSharedHierarchy(t *testing.T) {
	// No private caches: CPUs share the cache hierarchy through the bus
	// (the paper's "multiple processors using a common cache hierarchy").
	cfg := HierarchyConfig{
		CPUs:   2,
		Shared: []Config{{Size: 4096, LineSize: 64, Assoc: 2, HitLatency: 2, Write: WriteBack}},
		Bus:    testBus(),
		Memory: testMem(),
	}
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, cfg)
	drive(t, h, k, func(p *pearl.Process) {
		h.Port(0).Access(p, Read, 0x40, 4)
		h.Port(1).Access(p, Read, 0x40, 4) // hit in the common cache
	})
	sc := h.SharedCache(0)
	if sc.S.Hits.Value() != 1 || sc.S.Misses.Value() != 1 {
		t.Errorf("shared cache hits=%d misses=%d", sc.S.Hits.Value(), sc.S.Misses.Value())
	}
}

// checkMESI asserts the MESI invariants across all outer private caches for
// the given line: at most one M or E copy, and an M/E copy excludes all
// others.
func checkMESI(t *testing.T, h *Hierarchy, la uint64) {
	t.Helper()
	var m, e, s int
	for cpu := range h.priv {
		st, ok := h.priv[cpu][h.outer].Probe(la)
		if !ok {
			continue
		}
		switch st {
		case Modified:
			m++
		case Exclusive:
			e++
		case Shared:
			s++
		}
	}
	if m > 1 || e > 1 || (m+e >= 1 && m+e+s > 1) {
		t.Fatalf("MESI violation on line %#x: M=%d E=%d S=%d", la, m, e, s)
	}
}

// Property-style test: random access sequences preserve MESI invariants
// under both coherence schemes.
func TestCoherenceInvariantsRandom(t *testing.T) {
	for _, coh := range []Coherence{Snoopy, Directory} {
		coh := coh
		t.Run(coh.String(), func(t *testing.T) {
			k := pearl.NewKernel()
			h := mustHierarchy(t, k, smpConfig(4, coh))
			rng := pearl.NewRNG(99)
			lines := []uint64{0, 0x40, 0x80, 0x1000, 0x2000, 0x2040}
			drive(t, h, k, func(p *pearl.Process) {
				for i := 0; i < 2000; i++ {
					cpu := rng.Intn(4)
					addr := lines[rng.Intn(len(lines))]
					kind := Read
					if rng.Bool(0.4) {
						kind = Write
					}
					h.Port(cpu).Access(p, kind, addr, 4)
					checkMESI(t, h, h.priv[0][0].LineAddr(addr))
				}
			})
		})
	}
}

func TestHierarchyStatsSet(t *testing.T) {
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, smpConfig(2, Snoopy))
	drive(t, h, k, func(p *pearl.Process) {
		h.Port(0).Access(p, Write, 0, 4)
		h.Port(1).Access(p, Read, 0, 4)
	})
	s := h.StatsSet()
	if s.Lookup("coherence") == nil {
		t.Fatal("stats missing coherence subset")
	}
	if len(s.Subsets) < 4 { // coherence + 2 caches + bus + memory
		t.Fatalf("stats subsets = %d", len(s.Subsets))
	}
}

func TestSnoopyRejectsCrossbar(t *testing.T) {
	cfg := smpConfig(2, Snoopy)
	cfg.Bus.Kind = bus.KindCrossbar
	if err := cfg.Validate(); err == nil {
		t.Fatal("snoopy over a crossbar must be rejected")
	}
}

func TestDirectoryOverCrossbarParallelism(t *testing.T) {
	// Two CPUs missing to different banks: with a directory over a crossbar
	// the misses overlap; over a bus they serialise.
	run := func(kind bus.Kind) pearl.Time {
		cfg := smpConfig(2, Directory)
		cfg.Bus.Kind = kind
		cfg.Bus.Banks = 4
		cfg.Bus.InterleaveBytes = 64
		k := pearl.NewKernel()
		h := mustHierarchy(t, k, cfg)
		k.Spawn("c0", func(p *pearl.Process) { h.Port(0).Access(p, Read, 0, 4) })
		k.Spawn("c1", func(p *pearl.Process) { h.Port(1).Access(p, Read, 64, 4) })
		return k.Run()
	}
	busT := run(bus.KindBus)
	xbarT := run(bus.KindCrossbar)
	if xbarT >= busT {
		t.Fatalf("crossbar (%d) should beat the bus (%d) on disjoint banks", xbarT, busT)
	}
}

func TestStoreBufferHidesWriteLatency(t *testing.T) {
	run := func(depth int) pearl.Time {
		cfg := uniConfig(WriteThrough)
		cfg.StoreBuffer = depth
		k := pearl.NewKernel()
		h := mustHierarchy(t, k, cfg)
		pt := h.Port(0)
		k.Spawn("driver", func(p *pearl.Process) {
			for i := 0; i < 8; i++ {
				pt.Access(p, Write, uint64(0x100+8*i), 4)
			}
		})
		k.Run()
		return k.Now()
	}
	// Without a buffer every store pays the full memory path synchronously;
	// with a deep buffer the CPU retires all stores immediately and only the
	// background drain extends the simulation.
	noBuf := run(0)
	buf := run(8)
	if buf >= noBuf {
		t.Fatalf("buffered (%d) should finish no later than unbuffered (%d)", buf, noBuf)
	}
	// All 8 writes still reached memory in both cases.
	cfg := uniConfig(WriteThrough)
	cfg.StoreBuffer = 8
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, cfg)
	pt := h.Port(0)
	var retire pearl.Time
	k.Spawn("driver", func(p *pearl.Process) {
		for i := 0; i < 8; i++ {
			pt.Access(p, Write, uint64(0x100+8*i), 4)
		}
		retire = p.Now()
	})
	end := k.Run()
	if h.Memory().Writes() != 8 {
		t.Fatalf("memory writes = %d, want 8", h.Memory().Writes())
	}
	// The CPU retired long before the drains finished.
	if retire >= end {
		t.Fatalf("retire at %d not before drain end %d", retire, end)
	}
}

func TestStoreBufferStallsWhenFull(t *testing.T) {
	cfg := uniConfig(WriteThrough)
	cfg.StoreBuffer = 2
	k := pearl.NewKernel()
	h := mustHierarchy(t, k, cfg)
	pt := h.Port(0)
	var retire pearl.Time
	k.Spawn("driver", func(p *pearl.Process) {
		for i := 0; i < 8; i++ {
			pt.Access(p, Write, uint64(0x100+8*i), 4)
		}
		retire = p.Now()
	})
	k.Run()
	// With depth 2, retiring 8 stores must wait for ~6 drains (8 cycles
	// each), far beyond the ~8 cycles of pure L1 time a deep buffer allows.
	if retire < 40 {
		t.Fatalf("retire at %d: full buffer did not stall the CPU", retire)
	}
}

func TestStoreBufferRequiresWriteThrough(t *testing.T) {
	cfg := uniConfig(WriteBack)
	cfg.StoreBuffer = 4
	if err := cfg.Validate(); err == nil {
		t.Fatal("store buffer over write-back must be rejected")
	}
}

// TestPortHitMatchesAccess checks the contract of Port.Begin and Port.Step —
// the successors of Port.Hit, whose name the test keeps: a stream of accesses
// driven step by step from one pearl.Process.HoldWhile chain that never
// returns to its process leaves the hierarchy in the state, and every access
// completing at the time, that the same stream leaves behind through Access,
// which blocks the process once per access. With several CPUs the chains
// interleave at every wait, on the bus and in each other's caches.
func TestPortHitMatchesAccess(t *testing.T) {
	twoLevel := uniConfig(WriteBack)
	twoLevel.Private = append(twoLevel.Private,
		Config{Size: 8192, LineSize: 64, Assoc: 1, HitLatency: 4, Write: WriteBack})
	split := uniConfig(WriteBack)
	split.SplitL1 = true
	split.L1I = Config{Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 1, Write: WriteBack}
	buffered := uniConfig(WriteThrough)
	buffered.StoreBuffer = 2
	wide := uniConfig(WriteBack) // fully associative: the indexed lookup
	wide.Private[0].Assoc = 0
	free := uniConfig(WriteBack) // zero hit latency: a hit holds for nothing
	free.Private[0].HitLatency = 0
	common := HierarchyConfig{CPUs: 3, Shared: []Config{l1cfg(WriteBack)}, Bus: testBus(), Memory: testMem()}
	for name, cfg := range map[string]HierarchyConfig{
		"one level": uniConfig(WriteBack), "two levels": twoLevel, "split L1": split,
		"write-through + store buffer": buffered, "fully associative": wide, "free hits": free,
		"snoopy": smpConfig(3, Snoopy), "directory": smpConfig(3, Directory), "common": common,
	} {
		t.Run(name, func(t *testing.T) {
			const accesses = 4000
			run := func(viaStep bool) (report string, times [][]pearl.Time, switches uint64) {
				k := pearl.NewKernel()
				defer k.Close() // the store-buffer drain never terminates
				h := mustHierarchy(t, k, cfg)
				times = make([][]pearl.Time, cfg.CPUs)
				for cpu := 0; cpu < cfg.CPUs; cpu++ {
					pt := h.Port(cpu)
					r := pearl.NewRNG(uint64(5 + cpu))
					issued, began := 0, pearl.Time(0)
					next := func() (AccessKind, uint64, uint64) {
						issued++
						began = k.Now()
						// 4 KiB over a 1 KiB L1: hits and misses; some straddle a line.
						return AccessKind(r.Intn(3)), uint64(r.Intn(4096)), uint64(1 + r.Intn(8))
					}
					done := func() { times[cpu] = append(times[cpu], k.Now()) }
					k.Spawn(fmt.Sprintf("driver%d", cpu), func(p *pearl.Process) {
						if !viaStep {
							for issued < accesses {
								kind, addr, size := next()
								pt.Access(p, kind, addr, size)
								done()
							}
							return
						}
						inFlight := false
						p.HoldWhile(func() pearl.Step {
							for {
								if inFlight {
									s, latency := pt.Step()
									if !s.Done {
										return s
									}
									if latency != k.Now()-began {
										t.Errorf("Step reports latency %d for an access begun at %d and over at %d", latency, began, k.Now())
									}
									inFlight = false
									done()
								}
								if issued == accesses {
									return pearl.Step{Done: true}
								}
								pt.Begin(next())
								inFlight = true
							}
						})
					})
				}
				k.Run()
				var sb strings.Builder
				if err := stats.RenderSet(&sb, h.StatsSet()); err != nil {
					t.Fatal(err)
				}
				for _, c := range h.Caches() {
					fmt.Fprintf(&sb, "%s: %+v\n", c.cfg.Name, c.sets)
				}
				return sb.String(), times, k.Switches()
			}
			wantReport, wantTimes, blocking := run(false)
			gotReport, gotTimes, stackless := run(true)
			if !reflect.DeepEqual(gotTimes, wantTimes) {
				t.Error("completion times differ between Begin/Step and Access")
			}
			if gotReport != wantReport {
				t.Errorf("statistics or cache contents differ\nAccess:\n%s\nBegin/Step:\n%s", wantReport, gotReport)
			}
			// Into each driver and out of it again, and a hand-off per store for
			// the drain process of a store buffer: nothing per access.
			if limit := uint64(2*cfg.CPUs + 2); stackless > limit && cfg.StoreBuffer == 0 {
				t.Errorf("%d switches stepping through %d accesses; want at most %d", stackless, accesses*cfg.CPUs, limit)
			}
			t.Logf("%d switches through Access, %d through Begin/Step", blocking, stackless)
		})
	}
}
