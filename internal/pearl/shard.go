package pearl

import (
	"fmt"
	"sort"
	"time"
)

// ShardGroup couples several kernels into one conservative parallel
// simulation (classic barrier-window / YAWNS synchronisation). Virtual time
// advances in windows [T, T+L): T is the earliest queued event across all
// shards and L the group's lookahead — the smallest latency any cross-shard
// interaction can have. Within a window every shard executes its local
// events concurrently on its own goroutine; events destined for another
// shard are buffered in per-pair mailboxes and injected at the next
// barrier. Because every cross-shard event is at least L in the future, an
// event generated inside a window can never land inside that same window,
// so shards never need to interrupt each other.
//
// Determinism does not come from the synchronisation protocol alone: the
// coordinator injects mailbox contents in a canonical (time, key, source)
// order, and the model layered on top must make every same-instant
// interaction between shards order-insensitive (see the sharded network's
// arrival buffers and link arbitration). Under that contract a simulation
// produces byte-identical results for any shard count, including one.
type ShardGroup struct {
	kernels   []*Kernel
	lookahead Time

	// cross[src*n+dst] is the mailbox of events shard src has produced for
	// shard dst. Only the holder of src's baton appends (inside a window),
	// only the coordinator drains (between windows); the window barrier —
	// which the baton is back home for — provides the happens-before edge
	// for both directions.
	cross   [][]crossEvent
	scratch []crossEvent

	// Host-side introspection (shardtel.go). Both nil by default: the
	// window loop then takes no wall-clock timestamps at all.
	tel        *ShardTelemetry
	spanHook   func(WindowSpan)
	resScratch []windowRes
}

// crossEvent is one buffered cross-shard event: a callback to run at an
// absolute time, with a deterministic ordering key.
type crossEvent struct {
	at         Time
	key1, key2 uint64
	src        int
	fn         func()
}

// NewShardGroup creates n kernels coupled with the given lookahead, which
// must be at least one cycle (a zero-latency cross-shard interaction cannot
// be synchronised conservatively).
func NewShardGroup(n int, lookahead Time) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("pearl: shard group of %d shards", n))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("pearl: shard lookahead %d; conservative windows need >= 1 cycle", lookahead))
	}
	g := &ShardGroup{
		kernels:   make([]*Kernel, n),
		lookahead: lookahead,
		cross:     make([][]crossEvent, n*n),
	}
	for i := range g.kernels {
		g.kernels[i] = NewKernel()
	}
	return g
}

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.kernels) }

// Kernel returns shard i's kernel.
func (g *ShardGroup) Kernel(i int) *Kernel { return g.kernels[i] }

// Lookahead returns the group's synchronisation horizon.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Send schedules fn at absolute time at on shard dst. Called from shard
// src's executing event. A local send (src == dst) schedules directly; a
// cross-shard send must respect the lookahead — at least `lookahead` cycles
// after src's current time — and is buffered until the next barrier, where
// all buffered events are injected in (at, key1, key2, src) order. The key
// is the model's deterministic identity for the event (the sharded network
// uses message/packet ids), which is what keeps injection order — and hence
// kernel seq assignment — independent of the shard count.
func (g *ShardGroup) Send(src, dst int, at Time, key1, key2 uint64, fn func()) {
	if src == dst {
		g.kernels[src].At(at, fn)
		return
	}
	if now := g.kernels[src].now; at < now+g.lookahead {
		panic(fmt.Sprintf("pearl: cross-shard event at %d from shard %d at time %d violates lookahead %d",
			at, src, now, g.lookahead))
	}
	box := &g.cross[src*len(g.kernels)+dst]
	*box = append(*box, crossEvent{at: at, key1: key1, key2: key2, src: src, fn: fn})
}

// drain injects every buffered cross-shard event into its destination
// kernel, in canonical order per destination.
func (g *ShardGroup) drain() {
	n := len(g.kernels)
	for dst := 0; dst < n; dst++ {
		g.scratch = g.scratch[:0]
		for src := 0; src < n; src++ {
			box := &g.cross[src*n+dst]
			if g.tel != nil && len(*box) > 0 {
				g.tel.Traffic[src*n+dst] += uint64(len(*box))
				g.tel.Shards[src].Sent += uint64(len(*box))
			}
			g.scratch = append(g.scratch, *box...)
			*box = (*box)[:0]
		}
		if len(g.scratch) == 0 {
			continue
		}
		sort.SliceStable(g.scratch, func(i, j int) bool {
			a, b := &g.scratch[i], &g.scratch[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.key1 != b.key1 {
				return a.key1 < b.key1
			}
			if a.key2 != b.key2 {
				return a.key2 < b.key2
			}
			return a.src < b.src
		})
		k := g.kernels[dst]
		for i := range g.scratch {
			ev := &g.scratch[i]
			k.At(ev.at, ev.fn)
			ev.fn = nil
		}
	}
}

// Run executes the simulation to completion: windows advance until no shard
// has non-daemon work and every mailbox is empty. It returns the group's
// final virtual time (the latest shard clock); every kernel is advanced to
// it, so end-of-run gauges agree across shards. With one shard the same
// windowed loop runs inline — the single-shard and multi-shard executions
// are the same code path, which is what the byte-identity guarantee rests
// on.
func (g *ShardGroup) Run() Time {
	n := len(g.kernels)
	// Host-side observation (telemetry, window spans) measures wall time
	// around the protocol; it never touches virtual time or event order.
	obs := g.observed()
	var runStart time.Time
	var evBase []uint64
	if obs {
		runStart = time.Now()
		evBase = make([]uint64, n)
	}
	var workers []*shardWorker
	if n > 1 {
		workers = make([]*shardWorker, n)
		for i, k := range g.kernels {
			workers[i] = startWorker(k)
		}
		defer func() {
			for _, w := range workers {
				close(w.start)
			}
		}()
	}
	var window uint64
	var lastNext Time
	for {
		g.drain()
		next := Forever
		work := false
		for _, k := range g.kernels {
			if k.PendingWork() {
				work = true
			}
			if t, ok := k.NextTime(); ok && t < next {
				next = t
			}
		}
		if !work {
			break
		}
		end := next + g.lookahead
		if obs {
			for i, k := range g.kernels {
				evBase[i] = k.EventCount()
			}
			if g.tel != nil && window > 0 {
				g.tel.Advance.Observe(uint64(next - lastNext))
			}
			lastNext = next
		}
		if workers == nil {
			if obs {
				t0 := time.Now()
				g.kernels[0].RunWindow(end)
				g.resScratch = append(g.resScratch[:0], windowRes{t0: t0, t1: time.Now()})
				g.windowDone(window, next, end, g.resScratch, evBase)
			} else {
				g.kernels[0].RunWindow(end)
			}
			window++
			continue
		}
		for _, w := range workers {
			w.start <- windowReq{end: end, measure: obs}
		}
		var panicked any
		results := g.resScratch[:0]
		for _, w := range workers {
			r := <-w.done
			if r.panicked != nil && panicked == nil {
				panicked = r.panicked
			}
			if obs {
				results = append(results, r)
			}
		}
		g.resScratch = results
		if panicked != nil {
			panic(panicked)
		}
		if obs {
			g.windowDone(window, next, end, results, evBase)
		}
		window++
	}
	if g.tel != nil {
		g.tel.Wall += time.Since(runStart)
	}
	var end Time
	for _, k := range g.kernels {
		if k.Now() > end {
			end = k.Now()
		}
	}
	for _, k := range g.kernels {
		k.FinishAt(end)
	}
	return end
}

// windowDone folds one finished window into the telemetry record and the
// span hook. res is index-aligned with the shards; the barrier-wait of a
// shard is the gap between its own finish and the slowest shard's.
func (g *ShardGroup) windowDone(window uint64, vstart, vend Time, res []windowRes, evBase []uint64) {
	last := res[0].t1
	for _, r := range res[1:] {
		if r.t1.After(last) {
			last = r.t1
		}
	}
	var totalEvents uint64
	for s := range res {
		r := &res[s]
		events := g.kernels[s].EventCount() - evBase[s]
		totalEvents += events
		if g.tel != nil {
			ld := &g.tel.Shards[s]
			ld.Busy += r.t1.Sub(r.t0)
			ld.Wait += last.Sub(r.t1)
			ld.Events += events
		}
		if g.spanHook != nil {
			g.spanHook(WindowSpan{
				Shard: s, Window: window,
				Start: r.t0, End: r.t1,
				VStart: vstart, VEnd: vend,
				Events: events,
			})
		}
	}
	if g.tel != nil {
		g.tel.Windows++
		g.tel.WindowEvents.Observe(totalEvents)
	}
}

// shardWorker is the persistent goroutine executing one shard's windows: a
// channel handshake per window instead of a goroutine spawn per window.
type shardWorker struct {
	start chan windowReq
	done  chan windowRes
}

// windowReq asks a worker to run one window; measure requests wall-clock
// timestamps around the execution.
type windowReq struct {
	end     Time
	measure bool
}

// windowRes is a worker's answer: the captured panic, if any, and — when
// measured — the wall-clock bounds of the window's execution.
type windowRes struct {
	panicked any
	t0, t1   time.Time
}

func startWorker(k *Kernel) *shardWorker {
	w := &shardWorker{start: make(chan windowReq), done: make(chan windowRes)}
	go func() {
		for req := range w.start {
			var res windowRes
			if req.measure {
				res.t0 = time.Now()
			}
			res.panicked = runWindowRecover(k, req.end)
			if req.measure {
				res.t1 = time.Now()
			}
			w.done <- res
		}
	}()
	return w
}

// runWindowRecover runs one window, converting a model panic into a value
// the coordinator re-panics with on its own goroutine.
func runWindowRecover(k *Kernel, end Time) (r any) {
	defer func() {
		if v := recover(); v != nil {
			r = v
		}
	}()
	k.RunWindow(end)
	return nil
}
