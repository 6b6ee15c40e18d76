package pearl

import (
	"fmt"
	"reflect"
	"testing"
)

// HoldWhile is specified as a literal loop of Holds and Acquires whose step
// function may run on any stack. This file holds it to that: seeded random
// programs are built twice — once on HoldWhile, once on the loop written out
// below — and must be indistinguishable in everything virtual time can
// show. The programs spawn short-lived children as they go, from bodies and
// from steps, so the two builds — which resume bodies at different points —
// also start their processes' coroutines in different orders.

// literalHoldWhile is the specification of Process.HoldWhile.
func literalHoldWhile(p *Process, step func() Step) {
	for {
		switch s := step(); {
		case s.Done:
			return
		default:
			p.wait(s)
		}
	}
}

// A program is a set of processes, each running a script of actions against
// the mailboxes, resources and futures of its shard.
type propOp uint8

const (
	opHold     propOp = iota // Hold(d)
	opChain                  // a chain of holds: HoldWhile or the literal loop
	opSend                   // send to process idx's inbox after d
	opRecv                   // receive from the own inbox
	opUse                    // acquire resource idx, chain or hold, release
	opAwait                  // await future idx
	opComplete               // complete future idx after d (one completer per future)
	opAfter                  // After(d) callback that logs and sends to inbox idx
	opDaemon                 // AtDaemon(now+d) callback that logs
	opSpawn                  // spawn a child that runs a chain, holds d and ends
	numPropOps

	// Chain links only: the step asks for resource idx instead of a hold; a
	// later link of the same chain releases it before its hold.
	opAcquire
	opRelease
)

// propLink is one step of a chain: a side effect executed inside the step
// function — in process context on the first step, in kernel context after —
// and the hold, or for opAcquire the resource wait, that follows it.
type propLink struct {
	d    Time
	side propOp // opHold (none), opSend, opAfter, opComplete, opSpawn, opAcquire or opRelease
	idx  int
}

type propAct struct {
	op    propOp
	d     Time
	idx   int
	links []propLink
}

type propProc struct {
	shard   int
	startAt Time
	acts    []propAct
}

type propSpec struct {
	shards    int
	lookahead Time
	procs     []propProc
	cuts      []Time // RunUntil horizons, ascending
}

const (
	propResources = 2 // per shard
	propFutures   = 3 // per shard
)

// genSpec draws a program. Objects are shard-local (a resource or future is
// only touched from its own shard); inboxes may be sent to from anywhere,
// across shards through ShardGroup.Send with the lookahead respected.
func genSpec(seed uint64, shards int) propSpec {
	r := NewRNG(seed)
	spec := propSpec{shards: shards, lookahead: Time(1 + r.Intn(6))}
	n := 2 + r.Intn(5)
	completed := make(map[[2]int]bool) // (shard, future) already has its completer
	link := func(shard int) propLink {
		l := propLink{d: Time(r.Intn(6)), side: opHold, idx: r.Intn(n)}
		switch r.Intn(8) {
		case 0:
			l.side = opSend
		case 1:
			l.side = opAfter
		case 2:
			l.side, l.idx = opComplete, r.Intn(propFutures)
			if completed[[2]int{shard, l.idx}] {
				l.side = opHold
			}
			completed[[2]int{shard, l.idx}] = true
		case 4:
			l.side = opSpawn // from kernel context, after the first step
		}
		return l
	}
	// A chain that may acquire holds one resource at a time, from an
	// opAcquire link to the opRelease link that follows it, so chains alone
	// never deadlock; a chain run inside opUse, which holds a resource
	// already, acquires nothing.
	chain := func(shard int, acquires bool) []propLink {
		var links []propLink
		for i, n := 0, r.Intn(7); i < n; i++ {
			if acquires && r.Intn(3) == 0 {
				res := r.Intn(propResources)
				links = append(links, propLink{side: opAcquire, idx: res})
				for j, m := 0, r.Intn(3); j < m; j++ {
					links = append(links, link(shard))
				}
				links = append(links, propLink{d: Time(r.Intn(6)), side: opRelease, idx: res})
				continue
			}
			links = append(links, link(shard))
		}
		return links
	}
	for i := 0; i < n; i++ {
		ps := propProc{shard: i % shards}
		if r.Intn(3) == 0 {
			ps.startAt = Time(r.Intn(10))
		}
		for a, na := 0, 3+r.Intn(10); a < na; a++ {
			act := propAct{op: propOp(r.Intn(int(numPropOps))), d: Time(r.Intn(8)), idx: r.Intn(n)}
			switch act.op {
			case opChain:
				act.links = chain(ps.shard, true)
			case opUse:
				act.idx = r.Intn(propResources)
				if r.Intn(2) == 0 {
					act.links = chain(ps.shard, false)
				}
			case opAwait:
				act.idx = r.Intn(propFutures)
			case opComplete:
				act.idx = r.Intn(propFutures)
				if completed[[2]int{ps.shard, act.idx}] {
					act.op = opHold
				}
				completed[[2]int{ps.shard, act.idx}] = true
			case opSpawn:
				act.links = chain(ps.shard, true)
			}
			ps.acts = append(ps.acts, act)
		}
		spec.procs = append(spec.procs, ps)
	}
	var at Time
	for i, nc := 0, 1+r.Intn(4); i < nc; i++ {
		at += Time(1 + r.Intn(25))
		spec.cuts = append(spec.cuts, at)
	}
	return spec
}

// propEntry is one line of a shard's activation log.
type propEntry struct {
	At   Time
	Who  int
	What string
}

// propShard is everything one kernel of a built program owns; with two
// shards running on two goroutines nothing here is shared.
type propShard struct {
	k   *Kernel
	log []propEntry
	res []*Resource
	fut []*Future

	// Not part of the outcome: how many chain acquisitions found their
	// resource taken.
	waits int
}

func (s *propShard) note(who int, what string) {
	s.log = append(s.log, propEntry{s.k.Now(), who, what})
}

type propWorld struct {
	spec   propSpec
	g      *ShardGroup // nil: everything on shards[0]
	shards []*propShard
	inbox  []*Mailbox
	sent   []uint64 // per sending process: cross-shard sequence, the ordering key
}

// build instantiates the program, on one kernel or on a shard group.
func build(spec propSpec, sharded, holdWhile bool) *propWorld {
	w := &propWorld{spec: spec, sent: make([]uint64, len(spec.procs))}
	n := 1
	if sharded {
		n = spec.shards
		w.g = NewShardGroup(n, spec.lookahead)
	}
	for i := 0; i < n; i++ {
		s := &propShard{k: NewKernel()}
		if sharded {
			s.k = w.g.Kernel(i)
		}
		for j := 0; j < propResources; j++ {
			s.res = append(s.res, s.k.NewResource(fmt.Sprintf("r%d.%d", i, j), 1))
		}
		for j := 0; j < propFutures; j++ {
			s.fut = append(s.fut, s.k.NewFuture())
		}
		w.shards = append(w.shards, s)
	}
	for i := range spec.procs {
		w.inbox = append(w.inbox, w.shardOf(i).k.NewMailbox(fmt.Sprintf("inbox%d", i)))
	}
	for i, ps := range spec.procs {
		w.shardOf(i).k.SpawnAt(ps.startAt, fmt.Sprintf("p%d", i), w.body(i, ps.acts, holdWhile))
	}
	return w
}

func (w *propWorld) shardIndex(proc int) int {
	if w.g == nil {
		return 0
	}
	return w.spec.procs[proc].shard
}

func (w *propWorld) shardOf(proc int) *propShard { return w.shards[w.shardIndex(proc)] }

// send delivers to process to's inbox d cycles from now, directly on the
// sender's shard or, across shards, lookahead later through the group.
func (w *propWorld) send(from, to int, d Time) {
	src, dst := w.shardIndex(from), w.shardIndex(to)
	if src == dst {
		if d == 0 {
			w.inbox[to].Send(from)
		} else {
			w.shards[src].k.After(d, func() { w.inbox[to].Send(from) })
		}
		return
	}
	w.sent[from]++
	at := w.shards[src].k.Now() + w.spec.lookahead + d
	w.g.Send(src, dst, at, uint64(from), w.sent[from], func() { w.inbox[to].Send(from) })
}

// effect performs the side effect of a chain link or of the matching plain
// action; everything here is legal in kernel context.
func (w *propWorld) effect(who int, op propOp, idx int, d Time) {
	s := w.shardOf(who)
	switch op {
	case opSend:
		w.send(who, idx, d)
	case opAfter:
		s.k.After(d, func() {
			s.note(who, "callback")
			w.send(who, idx, 0)
		})
	case opDaemon:
		s.k.AtDaemon(s.k.Now()+d, func() { s.note(who, "daemon") })
	case opComplete:
		if f := s.fut[idx]; d == 0 {
			f.Complete(who)
		} else {
			s.k.After(d, func() { f.Complete(who) })
		}
	case opRelease:
		s.res[idx].Release()
	case opSpawn:
		// A child of a chain link only holds; one spawned by an action runs
		// a chain of its own first (body, below).
		s.k.Spawn(fmt.Sprintf("p%d.link", who), w.body(who, []propAct{{op: opHold, d: d}}, false))
	}
}

// body is the script acts as a process body. A spawned child runs its
// script under its parent's identity who — same shard, same inbox, same
// cross-shard send sequence.
func (w *propWorld) body(who int, acts []propAct, holdWhile bool) func(*Process) {
	s := w.shardOf(who)
	holdChain := func(p *Process, links []propLink) {
		i := 0
		step := func() Step {
			s.note(who, "step")
			for i < len(links) {
				l := links[i]
				i++
				if l.side != opAcquire {
					w.effect(who, l.side, l.idx, l.d)
					return Step{Hold: l.d}
				}
				// Every other acquisition the way the bus and the DRAM do it:
				// taken in the step if free, asked for only if contended.
				if i%2 == 0 && s.res[l.idx].TryAcquire() {
					continue
				}
				if s.res[l.idx].inUse > 0 {
					s.waits++
				}
				return Step{Acquire: s.res[l.idx]}
			}
			return Step{Done: true}
		}
		if holdWhile {
			p.HoldWhile(step)
		} else {
			literalHoldWhile(p, step)
		}
	}
	return func(p *Process) {
		for i, a := range acts {
			switch a.op {
			case opHold:
				p.Hold(a.d)
			case opChain:
				holdChain(p, a.links)
			case opRecv:
				p.Receive(w.inbox[who])
			case opUse:
				p.wait(Step{Acquire: s.res[a.idx]})
				if a.links != nil {
					holdChain(p, a.links)
				} else {
					p.Hold(a.d)
				}
				s.res[a.idx].Release()
			case opAwait:
				p.wait(Step{Await: s.fut[a.idx]})
			case opSpawn:
				child := []propAct{{op: opChain, links: a.links}, {op: opHold, d: a.d}}
				s.k.Spawn(fmt.Sprintf("p%d.%d", who, i), w.body(who, child, holdWhile))
			default:
				w.effect(who, a.op, a.idx, a.d)
			}
			s.note(who, fmt.Sprintf("%s act %d", p.name, i))
		}
	}
}

// propOutcome is everything the two builds of a program must agree on.
type propOutcome struct {
	Logs    [][]propEntry
	Now     []Time
	Events  []uint64
	Blocked [][]string
	// Per resource: BusyCycles, WaitCycles, Acquires, InUse, QueueLen.
	Resources [][5]int64
}

func (w *propWorld) outcome() propOutcome {
	var o propOutcome
	for _, s := range w.shards {
		o.Logs = append(o.Logs, s.log)
		o.Now = append(o.Now, s.k.Now())
		o.Events = append(o.Events, s.k.EventCount())
		var blocked []string
		for _, p := range s.k.blocked() {
			blocked = append(blocked, p.name+": "+p.blockReason())
		}
		o.Blocked = append(o.Blocked, blocked)
		for _, r := range s.res {
			o.Resources = append(o.Resources, [5]int64{int64(r.BusyCycles()), int64(r.WaitCycles()),
				int64(r.Acquires()), int64(r.inUse), int64(r.queueLen())})
		}
		s.k.Close() // most programs leave someone waiting for a message
	}
	return o
}

func propDrivers() map[string]func(*testing.T, *propWorld) {
	return map[string]func(*testing.T, *propWorld){
		"Run": func(t *testing.T, w *propWorld) { w.shards[0].k.Run() },
		"RunUntil": func(t *testing.T, w *propWorld) {
			// Cut the run at arbitrary horizons — mid-chain more often than
			// not — and require the same state at every cut.
			s := w.shards[0]
			for _, at := range w.spec.cuts {
				s.k.RunUntil(at)
				var waiting []string
				for _, p := range s.k.blocked() {
					waiting = append(waiting, p.name+": "+p.blockReason())
				}
				s.note(-1, fmt.Sprintf("cut: %d events, waiting %q", s.k.EventCount(), waiting))
			}
			s.k.Run()
		},
		"ShardGroup": func(t *testing.T, w *propWorld) { w.g.Run() },
	}
}

func TestHoldWhileEquivalence(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	var chains, waits, switchesLoop, switchesChain uint64
	for name, drive := range propDrivers() {
		for _, shards := range []int{1, 2} {
			sharded := name == "ShardGroup"
			if !sharded && shards > 1 {
				continue
			}
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				spec := genSpec(seed, shards)
				var got [2]propOutcome
				for i, holdWhile := range []bool{false, true} {
					w := build(spec, sharded, holdWhile)
					drive(t, w)
					got[i] = w.outcome()
					for _, s := range w.shards {
						if holdWhile {
							switchesChain += s.k.Switches()
						} else {
							switchesLoop += s.k.Switches()
							waits += uint64(s.waits)
						}
					}
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Fatalf("%s, %d shard(s), seed %d: HoldWhile differs from the literal loop\nloop:      %+v\nHoldWhile: %+v",
						name, shards, seed, got[0], got[1])
				}
				for _, log := range got[0].Logs {
					for _, e := range log {
						if e.What == "step" {
							chains++
						}
					}
				}
			}
		}
	}
	// The programs must actually exercise chains, and the chains must save
	// what they exist to save.
	if chains < 1000 {
		t.Errorf("only %d chain steps executed; the generator is not exercising HoldWhile", chains)
	}
	if waits < 300 {
		t.Errorf("only %d blocked acquisitions; the generator is not exercising contended resources", waits)
	}
	if switchesChain >= switchesLoop {
		t.Errorf("HoldWhile programs switched %d times, literal loops %d; want fewer", switchesChain, switchesLoop)
	}
	t.Logf("%d chain steps, %d resource waits; %d switches with literal loops, %d with HoldWhile",
		chains, waits, switchesLoop, switchesChain)
}

func TestAllocFreeHoldWhile(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	k.Spawn("holder", func(p *Process) {
		p.HoldWhile(func() Step { return Step{Hold: 1} })
	})
	k.RunUntil(64) // warm up the slab
	now := Time(64)
	if got := testing.AllocsPerRun(100, func() {
		now += 8
		k.RunUntil(now)
	}); got != 0 {
		t.Errorf("HoldWhile chain allocates %v times per RunUntil slice; want 0", got)
	}
	if got := k.Switches(); got != 1 {
		t.Errorf("%d switches; want 1 (the body's first resumption, for its first step): the chain itself runs on the caller", got)
	}
	k.Close()
}
