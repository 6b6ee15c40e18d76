package cache

import (
	"testing"

	"mermaid/internal/pearl"
)

// TestAllocFreeMissChain pins the cost model of an access in flight: all the
// state a miss, an upgrade or a write-back carries across its waits lives in
// the port, so none of them allocates — whatever the depth of the hierarchy
// underneath.
func TestAllocFreeMissChain(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	deep := func(cpus int, coh Coherence) HierarchyConfig {
		cfg := smpConfig(cpus, coh)
		cfg.Private = append(cfg.Private, Config{Size: 4096, LineSize: 64, Assoc: 2, HitLatency: 3, Write: WriteBack})
		cfg.Shared = []Config{
			{Size: 8192, LineSize: 64, Assoc: 2, HitLatency: 4, Write: WriteThrough},
			{Size: 16384, LineSize: 128, Assoc: 2, HitLatency: 6, Write: WriteBack},
		}
		return cfg
	}
	// What each CPU does for ever: an access, then a pause.
	type op struct {
		kind  AccessKind
		addr  func(round uint64) uint64
		pause pearl.Time
	}
	stride := func(round uint64) uint64 { return round * 64 % (1 << 20) } // misses every level
	line := func(uint64) uint64 { return 0x4000 }
	cases := []struct {
		name  string
		cfg   HierarchyConfig
		cpus  []op
		count func(h *Hierarchy) uint64 // the events the case is about
	}{
		{"miss", deep(1, NoCoherence), []op{{Read, stride, 0}},
			func(h *Hierarchy) uint64 { return h.mem.Reads() }},
		{"write-back", deep(1, NoCoherence), []op{{Write, stride, 0}},
			func(h *Hierarchy) uint64 { return h.busWB.Value() }},
		// CPU 0 writes the line CPU 1 has read since: Shared on both sides, so
		// every write is an upgrade and every read a cache-to-cache supply.
		{"upgrade, snoopy", deep(2, Snoopy), []op{{Write, line, 200}, {Read, line, 200}},
			func(h *Hierarchy) uint64 { return h.busUpgr.Value() }},
		{"upgrade, directory", deep(2, Directory), []op{{Write, line, 200}, {Read, line, 200}},
			func(h *Hierarchy) uint64 { return h.busUpgr.Value() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := pearl.NewKernel()
			defer k.Close()
			h := mustHierarchy(t, k, tc.cfg)
			for cpu, o := range tc.cpus {
				pt := h.Port(cpu)
				round, inFlight := uint64(0), false
				start := pearl.Time(100 * cpu) // the CPUs take turns
				k.SpawnAt(start, "cpu", func(p *pearl.Process) {
					p.HoldWhile(func() pearl.Step {
						for {
							if inFlight {
								if s, _ := pt.Step(); !s.Done {
									return s
								}
								inFlight = false
								return pearl.Step{Hold: o.pause}
							}
							pt.Begin(o.kind, o.addr(round), 4)
							round++
							inFlight = true
						}
					})
				})
			}
			now := k.RunUntil(20_000) // warm up: slab, caches, directory entries
			before := tc.count(h)
			const slices, slice = 100, 2_000
			allocs := testing.AllocsPerRun(slices, func() {
				now += slice
				k.RunUntil(now)
			})
			events := tc.count(h) - before
			if events < slices {
				t.Fatalf("only %d events in %d cycles: the case no longer exercises what it is named for", events, slices*slice)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per %d-cycle slice (%d events in all); want 0", allocs, slice, events)
			}
			if got := k.Switches(); got > uint64(4*len(tc.cpus)) {
				t.Errorf("%d switches: the chains are not running stackless", got)
			}
		})
	}
}
