package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/cpu"
	"mermaid/internal/farm"
	"mermaid/internal/machine"
	"mermaid/internal/memory"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/resultcache"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
	apps "mermaid/internal/workload"
)

// probeSet runs the layer probes: each times calls into one layer's
// exported functions from outside and reports a cost per unit of that
// layer's work. Sizes are for about a tenth of a second each on the
// reference host; scale shrinks them (the self-test runs at 1 %).
type probeSet struct {
	scale   float64
	seed    uint64
	nproc   int
	out     map[string]float64
	samples map[string]int
	// directServiceMS is the wall time of one service job's simulation run
	// in process the way the server runs it (timeline and analyzer on): the
	// base of server.miss_over_direct.
	directServiceMS float64
}

func newProbeSet(scale float64, seed uint64, nproc int) *probeSet {
	return &probeSet{scale: scale, seed: seed, nproc: nproc,
		out: map[string]float64{}, samples: map[string]int{}}
}

func (ps *probeSet) n(full int) int {
	n := int(float64(full) * ps.scale)
	if n < 64 {
		n = 64
	}
	return n
}

func (ps *probeSet) reps(full int) int {
	if ps.scale < 1 {
		return 1
	}
	return full
}

func (ps *probeSet) set(name string, v float64, samples int) {
	ps.out[name] = v
	ps.samples[name] = samples
}

func perUnitNS(d time.Duration, units int) float64 {
	return float64(d.Nanoseconds()) / float64(units)
}

// runAll executes every probe; the first error aborts, since a probe that
// cannot run is a broken build of the layer, not a slow one.
func (ps *probeSet) runAll() error {
	for _, p := range []func() error{
		ps.pearlProbes, ps.shardProbes, ps.traceProbes, ps.nodeProbes,
		ps.routingProbes, ps.observabilityProbes, ps.cacheProbes, ps.farmProbes,
	} {
		runtime.GC()
		if err := p(); err != nil {
			return err
		}
	}
	return nil
}

func (ps *probeSet) pearlProbes() error {
	// Event throughput with 1024 events pending, so every insertion and
	// removal reorders a heap of realistic depth.
	{
		const pending = 1024
		total := ps.n(2_000_000)
		k := pearl.NewKernel()
		rng := pearl.NewRNG(1)
		fired := 0
		var fn func()
		fn = func() {
			fired++
			if fired+pending <= total {
				k.After(pearl.Time(rng.Intn(1000)+1), fn)
			}
		}
		for i := 0; i < pending; i++ {
			k.At(pearl.Time(rng.Intn(1000)+1), fn)
		}
		start := time.Now()
		k.Run()
		ps.set("pearl.ns_per_event", perUnitNS(time.Since(start), fired), fired)
	}
	// Process handoff: one process holding for a cycle at a time, each hold
	// a switch into the kernel and back.
	{
		n := ps.n(300_000)
		k := pearl.NewKernel()
		k.Spawn("holder", func(p *pearl.Process) {
			for i := 0; i < n; i++ {
				p.Hold(1)
			}
		})
		start := time.Now()
		k.Run()
		ps.set("pearl.ns_per_handoff", perUnitNS(time.Since(start), n), n)
	}
	// Mailbox ping-pong between two processes.
	{
		n := ps.n(200_000)
		k := pearl.NewKernel()
		a, b := k.NewMailbox("a"), k.NewMailbox("b")
		k.Spawn("ping", func(p *pearl.Process) {
			for i := 0; i < n; i++ {
				b.Send(i)
				p.Receive(a)
			}
		})
		k.Spawn("pong", func(p *pearl.Process) {
			for i := 0; i < n; i++ {
				p.Receive(b)
				a.Send(i)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		k.Run()
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		msgs := 2 * n
		ps.set("pearl.ns_per_mailbox_msg", perUnitNS(el, msgs), msgs)
		ps.set("pearl.allocs_per_mailbox_msg", float64(after.Mallocs-before.Mallocs)/float64(msgs), msgs)
	}
	return nil
}

// shardProbes measures what the second core buys one simulation: the
// task-sharded request at one shard against two, in alternated pairs, and
// the parallel efficiency the shard group reports about itself.
func (ps *probeSet) shardProbes() error {
	withShards := func(in requestInput, shards int) (requestInput, error) {
		cfg, err := machine.ParseConfig(in.config)
		if err != nil {
			return in, err
		}
		cfg.Shards = shards
		in.config, err = json.Marshal(cfg)
		return in, err
	}
	pairs := ps.reps(4)
	var one, two []float64
	for i := 0; i < pairs; i++ {
		base, err := makeRequest("task-sharded", ps.seed, 10_000+i)
		if err != nil {
			return err
		}
		order := []int{1, 2}
		if i%2 == 1 {
			order = []int{2, 1}
		}
		for _, shards := range order {
			in, err := withShards(base, shards)
			if err != nil {
				return err
			}
			rr, err := runRequest(in, nil, i)
			if err != nil {
				return fmt.Errorf("shard probe (%d shards): %w", shards, err)
			}
			if shards == 1 {
				one = append(one, ms(rr.wall))
			} else {
				two = append(two, ms(rr.wall))
			}
		}
	}
	ps.set("pearl.shard_speedup", median(one)/median(two), pairs)

	in, err := makeRequest("task-sharded", ps.seed, 10_000)
	if err != nil {
		return err
	}
	cfg, err := machine.ParseConfig(in.config)
	if err != nil {
		return err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	tel := m.ShardGroup().EnableTelemetry()
	if _, err := m.RunStochastic(in.desc); err != nil {
		return err
	}
	ps.set("pearl.shard_efficiency", tel.Efficiency(), 1)
	return nil
}

func (ps *probeSet) traceProbes() error {
	// Batched pull delivery: a cursor over a slice source.
	{
		chunk := make([]ops.Op, ps.n(250_000))
		for i := range chunk {
			chunk[i] = ops.NewArith(ops.Add, ops.TypeInt)
		}
		total := 0
		start := time.Now()
		for r := 0; r < 4; r++ {
			cur := trace.NewCursor(trace.FromOps(chunk))
			for {
				if _, err := cur.Next(); err != nil {
					if err != io.EOF {
						return err
					}
					break
				}
				total++
			}
		}
		ps.set("trace.ns_per_op", perUnitNS(time.Since(start), total), total)
	}
	// Execution-driven delivery: a program thread emitting, the consumer
	// pulling.
	{
		n := ps.n(1_000_000)
		op := ops.NewArith(ops.Add, ops.TypeInt)
		prog := &trace.Program{Threads: 1, Body: func(t *trace.Thread) {
			for i := 0; i < n; i++ {
				t.Emit(op)
			}
		}}
		th := prog.Start()[0]
		got := 0
		start := time.Now()
		for {
			if _, err := th.Next(); err != nil {
				break
			}
			got++
		}
		el := time.Since(start)
		prog.Close()
		if got != n {
			return fmt.Errorf("program thread delivered %d of %d operations", got, n)
		}
		ps.set("trace.ns_per_thread_op", perUnitNS(el, got), got)
	}
	// Stochastic generation: 16 nodes x 10k instructions.
	{
		desc := stochastic.Desc{
			Nodes: 16, Level: stochastic.InstructionLevel, Seed: ps.seed, Iterations: 1,
			Phases: []stochastic.Phase{{
				Instructions: int64(ps.n(10_000)),
				Comm:         stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 512},
			}},
		}
		total := 0
		start := time.Now()
		for r := 0; r < ps.reps(4); r++ {
			traces, err := stochastic.Generate(desc)
			if err != nil {
				return err
			}
			for _, t := range traces {
				total += len(t)
			}
		}
		ps.set("stochastic.ns_per_op", perUnitNS(time.Since(start), total), total)
	}
	// Annotation translation: an instrumented Jacobi thread drained.
	{
		total := 0
		start := time.Now()
		for r := 0; r < ps.reps(4); r++ {
			prog := apps.Jacobi1D(1, ps.n(4096), 3)
			th := prog.Start()[0]
			for {
				if _, err := th.Next(); err != nil {
					break
				}
				total++
			}
			prog.Close()
		}
		if total == 0 {
			return fmt.Errorf("annotated program generated no trace")
		}
		ps.set("annotate.ns_per_op", perUnitNS(time.Since(start), total), total)
	}
	return nil
}

// driveHierarchy builds a PowerPC 601 style hierarchy with the given CPU
// count, spawns one process per CPU running body, and returns the host time
// of the whole simulation.
func driveHierarchy(cpus int, body func(p *pearl.Process, c int, h *cache.Hierarchy)) (time.Duration, error) {
	hc := machine.PPC601Node().Hierarchy
	if cpus > 1 {
		hc = machine.PPC601SMP(cpus).Node.Hierarchy
	}
	env := sim.NewEnv(1, nil)
	h, err := cache.NewHierarchy(env, "probe", hc)
	if err != nil {
		return 0, err
	}
	for c := 0; c < cpus; c++ {
		c := c
		env.Kernel.Spawn(fmt.Sprintf("cpu%d", c), func(p *pearl.Process) { body(p, c, h) })
	}
	start := time.Now()
	env.Kernel.Run()
	return time.Since(start), nil
}

func (ps *probeSet) nodeProbes() error {
	const base = 0x1000_0000
	// Computational model: arithmetic operations only, no memory traffic.
	{
		n := ps.n(300_000)
		table := []ops.Op{
			ops.NewArith(ops.Add, ops.TypeInt), ops.NewArith(ops.Mul, ops.TypeFloat),
			ops.NewArith(ops.Sub, ops.TypeLong), ops.NewArith(ops.Div, ops.TypeDouble),
		}
		var execErr error
		el, err := driveHierarchy(1, func(p *pearl.Process, _ int, h *cache.Hierarchy) {
			c := cpu.New(0, machine.PPC601Timing(), h.Port(0))
			for i := 0; i < n; i++ {
				if err := c.Exec(p, table[i%len(table)]); err != nil {
					execErr = err
					return
				}
			}
		})
		if err != nil {
			return err
		}
		if execErr != nil {
			return execErr
		}
		ps.set("cpu.ns_per_instr", perUnitNS(el, n), n)
	}
	// Cache hits: an 8 KiB working set inside the 32 KiB L1.
	{
		n := ps.n(400_000)
		el, err := driveHierarchy(1, func(p *pearl.Process, _ int, h *cache.Hierarchy) {
			pt := h.Port(0)
			for i := 0; i < n; i++ {
				pt.Access(p, cache.Read, base+uint64(i*32)%(8<<10), 4)
			}
		})
		if err != nil {
			return err
		}
		ps.set("cache.ns_per_hit", perUnitNS(el, n), n)
	}
	// Cache misses: a line-sized stride over 4 MiB defeats both levels, so
	// every access walks L1, L2, the bus and DRAM.
	{
		n := ps.n(100_000)
		el, err := driveHierarchy(1, func(p *pearl.Process, _ int, h *cache.Hierarchy) {
			pt := h.Port(0)
			for i := 0; i < n; i++ {
				pt.Access(p, cache.Read, base+uint64(i*64)%(4<<20), 4)
			}
		})
		if err != nil {
			return err
		}
		ps.set("cache.ns_per_miss", perUnitNS(el, n), n)
	}
	// Coherent writes: four snoopy CPUs writing the same 64 lines.
	{
		const cpus = 4
		n := ps.n(40_000)
		el, err := driveHierarchy(cpus, func(p *pearl.Process, c int, h *cache.Hierarchy) {
			pt := h.Port(c)
			for i := 0; i < n; i++ {
				pt.Access(p, cache.Write, base+uint64((i+c)%64)*32, 4)
			}
		})
		if err != nil {
			return err
		}
		ps.set("cache.ns_per_coherent_write", perUnitNS(el, cpus*n), cpus*n)
	}
	// Bus transactions, alone and with four requesters arbitrating.
	for _, tc := range []struct {
		metric string
		procs  int
	}{{"bus.ns_per_transaction", 1}, {"bus.ns_per_contended_transaction", 4}} {
		n := ps.n(200_000) / tc.procs
		k := pearl.NewKernel()
		b := bus.New(k, "bus", machine.PPC601Node().Hierarchy.Bus, nil, nil)
		for c := 0; c < tc.procs; c++ {
			k.Spawn(fmt.Sprintf("req%d", c), func(p *pearl.Process) {
				for i := 0; i < n; i++ {
					b.Transact(p, base+uint64(i)*32, 32, nil)
				}
			})
		}
		start := time.Now()
		k.Run()
		ps.set(tc.metric, perUnitNS(time.Since(start), tc.procs*n), tc.procs*n)
	}
	// DRAM reads.
	{
		n := ps.n(300_000)
		k := pearl.NewKernel()
		d := memory.New(k, "dram", machine.PPC601Node().Hierarchy.Memory, nil, nil)
		k.Spawn("reader", func(p *pearl.Process) {
			for i := 0; i < n; i++ {
				d.Read(p, base+uint64(i)*32, 32)
			}
		})
		start := time.Now()
		k.Run()
		ps.set("memory.ns_per_access", perUnitNS(time.Since(start), n), n)
	}
	return nil
}

// walkRoutes is the per-hop query mix of the network forward loop: Route,
// Dateline, Neighbor, over long routes between varied pairs.
func walkRoutes(tp topology.Topology, minHops int) (time.Duration, int) {
	n := tp.Nodes()
	hops, sink := 0, 0
	start := time.Now()
	for i := 0; hops < minHops; i++ {
		at, to := i%n, (i*7919+n/2)%n
		for at != to {
			port := tp.Route(at, to)
			if tp.Dateline(at, port) {
				sink++
			}
			at = tp.Neighbor(at, port)
			hops++
		}
	}
	el := time.Since(start)
	runtime.KeepAlive(sink)
	return el, hops
}

func (ps *probeSet) routingProbes() error {
	mesh, err := topology.NewMesh(8, 8)
	if err != nil {
		return err
	}
	el, hops := walkRoutes(mesh, ps.n(3_000_000))
	ps.set("topology.ns_per_hop_mesh", perUnitNS(el, hops), hops)

	torus, err := topology.NewTorus3D(32, 32, 16)
	if err != nil {
		return err
	}
	el, hops = walkRoutes(torus, ps.n(3_000_000))
	ps.set("topology.ns_per_hop_torus3d", perUnitNS(el, hops), hops)

	// Fault re-pathing: an eager next-hop table over a 1,024-node torus
	// with about one link in a hundred dead.
	side := 32
	if ps.scale < 1 {
		side = 8
	}
	grid, err := topology.NewTorus(side, side)
	if err != nil {
		return err
	}
	alive := func(node, port int) bool { return deriveSeed(ps.seed, "dead-links", node*16+port, "")%100 != 0 }
	var builds []float64
	for r := 0; r < ps.reps(3); r++ {
		start := time.Now()
		if _, err := router.BuildTable(grid, alive); err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(start)))
	}
	ps.set("router.table_build_ms", median(builds), len(builds))
	return nil
}

// observabilityProbes prices the instrumentation the server always runs
// with: the same job simulated plain, with the virtual-time timeline, and
// with the bottleneck analyzer.
func (ps *probeSet) observabilityProbes() error {
	{
		n := ps.n(1_000_000)
		tl := probe.NewTimeline()
		trk := tl.Track("probe.track")
		start := time.Now()
		for i := 0; i < n; i++ {
			tl.Span(trk, "span", pearl.Time(i), pearl.Time(i+1))
		}
		ps.set("probe.ns_per_span", perUnitNS(time.Since(start), n), n)
	}

	kind := "service-direct"
	if ps.scale < 1 {
		kind = "task-mesh64" // same machine family; the self-test only needs the path
	}
	run := func(in requestInput, timeline, analysis bool) (requestResult, error) {
		in.timeline, in.analysis = timeline, analysis
		runtime.GC() // each variant starts from the same heap
		return runRequest(in, nil, 0)
	}
	var plain, withTimeline, withAnalysis, withBoth []float64
	var last requestResult
	for r := 0; r < ps.reps(4); r++ {
		in, err := makeRequest(kind, ps.seed, 20_000+r)
		if err != nil {
			return err
		}
		for v := 0; v < 4; v++ {
			switch (v + r) % 4 { // rotate the order so drift cancels
			case 0:
				rr, err := run(in, false, false)
				if err != nil {
					return err
				}
				plain = append(plain, ms(rr.wall))
			case 1:
				rr, err := run(in, true, false)
				if err != nil {
					return err
				}
				withTimeline = append(withTimeline, ms(rr.wall))
				last = rr
			case 2:
				rr, err := run(in, false, true)
				if err != nil {
					return err
				}
				withAnalysis = append(withAnalysis, ms(rr.wall))
			case 3:
				rr, err := run(in, true, true)
				if err != nil {
					return err
				}
				withBoth = append(withBoth, ms(rr.wall))
			}
		}
	}
	ps.set("probe.timeline_on_ratio", median(withTimeline)/median(plain), len(plain))
	ps.set("analysis.on_ratio", median(withAnalysis)/median(plain), len(plain))
	ps.directServiceMS = median(withBoth)

	var buf bytes.Buffer
	start := time.Now()
	if err := last.timeline.WriteJSON(&buf); err != nil {
		return err
	}
	el := time.Since(start)
	ps.set("probe.timeline_write_mb_per_s", float64(buf.Len())/(1<<20)/el.Seconds(), 1)
	return nil
}

// cacheProbes times the result cache with entries the size of a real job's
// artifacts, so a put that gets cheaper by making get dearer shows.
func (ps *probeSet) cacheProbes() error {
	const capacity = 256
	c := resultcache.New(capacity)
	entry := resultcache.Entry{
		Report: make([]byte, 8<<10), Metrics: make([]byte, 4<<10),
		Timeline: make([]byte, 512<<10), Bottleneck: make([]byte, 16<<10),
		Cycles: 1, Events: 1,
	}
	keys := make([]resultcache.Key, 2*capacity)
	for i := range keys {
		keys[i] = resultcache.Key{
			Config:   fmt.Sprintf("%064x", deriveSeed(ps.seed, "cfg", i, "")),
			Workload: fmt.Sprintf("%064x", deriveSeed(ps.seed, "wl", i, "")),
			Seed:     uint64(i),
		}
	}
	n := ps.n(400_000)
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Put(keys[i%len(keys)], entry) // twice the capacity: half the puts evict
	}
	ps.set("resultcache.put_ns", perUnitNS(time.Since(start), n), n)

	found := 0
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); ok {
			found++
		}
	}
	ps.set("resultcache.get_ns", perUnitNS(time.Since(start), n), n)
	if found == 0 {
		return fmt.Errorf("result cache probe never hit")
	}
	return nil
}

func (ps *probeSet) farmProbes() error {
	noop := farm.Job{Name: "noop", Run: func(rc *farm.RunContext) (any, error) {
		rc.ObserveSim(1, 1)
		return rc.Seed, nil
	}}
	n := ps.n(10_000)
	{
		jobs := make([]farm.Job, n)
		for i := range jobs {
			jobs[i] = noop
		}
		start := time.Now()
		rep := farm.New(ps.nproc).Run(jobs)
		el := time.Since(start)
		if err := rep.Err(); err != nil {
			return err
		}
		ps.set("farm.overhead_us_per_run", perUnitNS(el, n)/1e3, n)
	}
	{
		q := farm.New(ps.nproc).StartQueue(n)
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := q.Submit(noop, uint64(i)); err != nil {
				q.Close()
				return err
			}
		}
		q.Close()
		ps.set("farm.queue_overhead_us_per_job", perUnitNS(time.Since(start), n)/1e3, n)
	}
	// Worker scaling on what the grid mostly runs: independent detailed
	// PowerPC 601 simulations, allocation-heavy, contending for the
	// collector. Runs per second at nproc workers over one worker.
	{
		count := 8
		if ps.scale < 1 {
			count = 2
		}
		jobs := make([]farm.Job, count)
		for i := range jobs {
			in, err := makeRequest("grid-direct", ps.seed, 30_000+i)
			if err != nil {
				return err
			}
			if ps.scale < 1 {
				in.desc.Phases[0].Instructions = 1000
			}
			jobs[i] = farm.Job{Name: fmt.Sprintf("point%d", i), Run: func(rc *farm.RunContext) (any, error) {
				rr, err := runRequest(in, nil, i)
				if err != nil {
					return nil, err
				}
				rc.ObserveSim(pearl.Time(rr.out.Cycles), rr.out.Events)
				return rr.out.Cycles, nil
			}}
		}
		rate := func(workers int) (float64, error) {
			rep := farm.New(workers).Run(jobs)
			if err := rep.Err(); err != nil {
				return 0, err
			}
			return float64(len(jobs)) / rep.Wall.Seconds(), nil
		}
		wide, err := rate(ps.nproc)
		if err != nil {
			return err
		}
		narrow, err := rate(1)
		if err != nil {
			return err
		}
		ps.set("farm.worker_scaling", wide/narrow, len(jobs))
	}
	return nil
}
