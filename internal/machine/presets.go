package machine

import (
	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/cpu"
	"mermaid/internal/dsm"
	"mermaid/internal/memory"
	"mermaid/internal/network"
	"mermaid/internal/node"
	"mermaid/internal/router"
	"mermaid/internal/topology"
)

// The presets below are the two calibration targets of the paper's §6: a
// multicomputer of INMOS T805 transputers and a single-node Motorola PowerPC
// 601 with two cache levels. Machine parameters are calibrated from
// published information (datasheets and architecture manuals); they are
// cycle-approximate, not cycle-exact — exactly the accuracy class the
// abstract-instruction methodology targets.

// t805Timing is the INMOS T805 (30 MHz) operation timing table: fast integer
// add/sub, microcoded multiply/divide, on-chip FPU.
func t805Timing() cpu.Timing {
	return cpu.Timing{
		Add:        cpu.ArithTiming{Int: 1, Long: 2, Float: 7, Double: 7},
		Sub:        cpu.ArithTiming{Int: 1, Long: 2, Float: 7, Double: 7},
		Mul:        cpu.ArithTiming{Int: 38, Long: 40, Float: 11, Double: 18},
		Div:        cpu.ArithTiming{Int: 39, Long: 41, Float: 17, Double: 32},
		LoadConst:  cpu.ArithTiming{Int: 1, Long: 2, Float: 2, Double: 2},
		Branch:     4,
		Call:       7,
		Ret:        5,
		FetchBytes: 4,
	}
}

// t805Node models a transputer node: 4 KiB of fast on-chip RAM acting as a
// directly addressed store (modelled as a small one-cycle cache) over
// external DRAM.
func t805Node() node.Config {
	return node.Config{
		Hierarchy: cache.HierarchyConfig{
			CPUs: 1,
			Private: []cache.Config{{
				Name: "onchip", Size: 4 << 10, LineSize: 16, Assoc: 0,
				HitLatency: 1, Write: cache.WriteBack,
			}},
			Bus:    bus.Config{Width: 4, ArbitrationDelay: 1},
			Memory: memory.Config{ReadLatency: 4, WriteLatency: 4, BytesPerCycle: 4, Ports: 1},
		},
		Timing: t805Timing(),
	}
}

// T805Grid returns a detailed model of a w x h mesh of T805 transputers:
// four 20 Mbit/s links per node (about 12 CPU cycles per byte at 30 MHz),
// store-and-forward software routing, rendezvous (occam-style) synchronous
// communication.
func T805Grid(w, h int) Config {
	return Config{
		Version: ConfigVersion,
		Name:    "t805-grid",
		Mode:    Detailed,
		Nodes:   w * h,
		Node:    t805Node(),
		Network: network.Config{
			Topology: topology.Config{Kind: topology.Mesh2D, DimX: w, DimY: h},
			Router: router.Config{
				Switching:    router.StoreAndForward,
				RoutingDelay: 15, // software through-routing per hop
				MaxPacket:    4096,
				HeaderBytes:  4,
			},
			Link:         network.LinkConfig{CyclesPerByte: 12, PropDelay: 1},
			SendOverhead: 30, // channel setup, ~1 us at 30 MHz
			RecvOverhead: 30,
			AckBytes:     4,
		},
	}
}

// T805GridTaskLevel is the same machine at the task-level abstraction.
func T805GridTaskLevel(w, h int) Config {
	cfg := T805Grid(w, h)
	cfg.Name = "t805-grid-task"
	cfg.Mode = TaskLevel
	return cfg
}

// PPC601Timing is the Motorola PowerPC 601 (66 MHz class) timing table.
func PPC601Timing() cpu.Timing {
	return cpu.Timing{
		Add:        cpu.ArithTiming{Int: 1, Long: 1, Float: 4, Double: 4},
		Sub:        cpu.ArithTiming{Int: 1, Long: 1, Float: 4, Double: 4},
		Mul:        cpu.ArithTiming{Int: 5, Long: 9, Float: 4, Double: 5},
		Div:        cpu.ArithTiming{Int: 36, Long: 36, Float: 17, Double: 31},
		LoadConst:  cpu.ArithTiming{Int: 1, Long: 1, Float: 1, Double: 1},
		Branch:     1,
		Call:       2,
		Ret:        2,
		FetchBytes: 4,
	}
}

// PPC601Node models the paper's single-node PowerPC 601 with two levels of
// cache: the on-chip 32 KiB 8-way unified L1 (32-byte lines) and an external
// 512 KiB direct-mapped L2.
func PPC601Node() node.Config {
	return node.Config{
		Hierarchy: cache.HierarchyConfig{
			CPUs: 1,
			Private: []cache.Config{
				{Name: "L1", Size: 32 << 10, LineSize: 32, Assoc: 8,
					HitLatency: 1, Write: cache.WriteBack},
				{Name: "L2", Size: 512 << 10, LineSize: 64, Assoc: 1,
					HitLatency: 7, Write: cache.WriteBack},
			},
			Bus:    bus.Config{Width: 8, ArbitrationDelay: 1},
			Memory: memory.Config{ReadLatency: 16, WriteLatency: 16, BytesPerCycle: 8, Ports: 1},
		},
		Timing: PPC601Timing(),
	}
}

// PPC601Machine is the single-node PowerPC 601 configuration of §6.
func PPC601Machine() Config {
	return Config{
		Version: ConfigVersion,
		Name:    "ppc601",
		Mode:    Detailed,
		Nodes:   1,
		Node:    PPC601Node(),
	}
}

// PPC601SMP is a bus-based shared-memory multiprocessor of PowerPC 601s
// with snoopy-MESI private caches (§4.3's shared-memory configuration).
func PPC601SMP(cpus int) Config {
	nd := PPC601Node()
	nd.Hierarchy.CPUs = cpus
	nd.Hierarchy.Coherence = cache.Snoopy
	nd.Hierarchy.CacheToCacheLatency = 4
	return Config{
		Version: ConfigVersion,
		Name:    "ppc601-smp",
		Mode:    Detailed,
		Nodes:   1,
		Node:    nd,
	}
}

// HybridCluster is a machine of SMP nodes (each `cpus` PowerPC 601s with
// snoopy caches) connected by a wormhole torus — the hybrid architecture of
// §4.3.
func HybridCluster(w, h, cpus int) Config {
	nd := PPC601Node()
	nd.Hierarchy.CPUs = cpus
	if cpus > 1 {
		nd.Hierarchy.Coherence = cache.Snoopy
		nd.Hierarchy.CacheToCacheLatency = 4
	}
	return Config{
		Version: ConfigVersion,
		Name:    "hybrid-cluster",
		Mode:    Detailed,
		Nodes:   w * h,
		Node:    nd,
		Network: network.Config{
			Topology: topology.Config{Kind: topology.Torus2D, DimX: w, DimY: h},
			Router: router.Config{
				Switching:    router.Wormhole,
				RoutingDelay: 2,
				MaxPacket:    4096,
				HeaderBytes:  8,
			},
			Link:         network.LinkConfig{BytesPerCycle: 2, PropDelay: 1},
			SendOverhead: 200,
			RecvOverhead: 150,
			AckBytes:     8,
		},
	}
}

// DSMCluster is a w x h torus of PowerPC 601 nodes with a virtual shared
// memory layered over the wormhole network: applications address a single
// shared segment and the page-based DSM protocol replaces all explicit
// communication (§5's future work, implemented).
func DSMCluster(w, h int) Config {
	cfg := HybridCluster(w, h, 1)
	cfg.Name = "dsm-cluster"
	d := dsm.DefaultConfig()
	cfg.DSM = &d
	return cfg
}

// GenericTaskMachine is a parameterisable task-level machine for network
// studies: `nodes` abstract processors on the given topology.
func GenericTaskMachine(topo topology.Config, nodes int, sw router.Switching) Config {
	return Config{
		Version: ConfigVersion,
		Name:    "generic-task",
		Mode:    TaskLevel,
		Nodes:   nodes,
		Network: network.Config{
			Topology: topo,
			Router: router.Config{
				Switching:    sw,
				RoutingDelay: 2,
				MaxPacket:    1024,
				HeaderBytes:  8,
			},
			Link:         network.LinkConfig{BytesPerCycle: 2, PropDelay: 1},
			SendOverhead: 50,
			RecvOverhead: 50,
			AckBytes:     8,
		},
	}
}

// TaskMachineFromSpec builds a task-level machine from a compact topology
// specification string ("kind:AxB...", see topology.ParseSpec): one abstract
// processor per topology node, wormhole switching, and the engine selected
// automatically — so a single -topology flag scales from a 16-node torus to
// a million-node dragonfly. The returned configuration carries the current
// schema version, so -dump-config output round-trips through ParseConfig.
func TaskMachineFromSpec(spec string) (Config, error) {
	tc, err := topology.ParseSpec(spec)
	if err != nil {
		return Config{}, err
	}
	tp, err := topology.New(tc)
	if err != nil {
		return Config{}, err
	}
	cfg := GenericTaskMachine(tc, tp.Nodes(), router.Wormhole)
	cfg.Name = "task-" + tp.Name()
	return cfg, nil
}
