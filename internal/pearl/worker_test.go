package pearl

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Process bodies run on pooled coroutine workers: a process takes one at its
// first activation and hands it back when its body ends. These tests hold
// the pool to what it is for — goroutines and allocations follow the number
// of processes alive, not the number ever spawned — and to what it must not
// change: a body that panics or is unwound behaves as if it had a goroutine
// of its own.

// TestGoroutineHighWater runs 100,000 three-cycle processes, eight alive at
// a time: the goroutine count never exceeds eight workers over the baseline,
// and Close returns it to the baseline.
func TestGoroutineHighWater(t *testing.T) {
	const lanes, total, slack = 8, 100_000, 2
	base := runtime.NumGoroutine()
	k := NewKernel()
	spawned, finished, high := 0, 0, 0
	var body func(p *Process)
	body = func(p *Process) {
		for cycle := 0; cycle < 3; cycle++ {
			p.Hold(1)
		}
		if n := runtime.NumGoroutine(); n > high {
			high = n
		}
		finished++
		if spawned < total {
			spawned++
			k.Spawn("short", body) // its lane's successor
		}
	}
	for ; spawned < lanes; spawned++ {
		k.Spawn("short", body)
	}
	k.Run()
	if finished != total {
		t.Fatalf("%d processes finished, want %d", finished, total)
	}
	if high > base+lanes+slack {
		t.Errorf("%d goroutines at the high-water mark, baseline %d: want at most %d workers", high, base, lanes)
	}
	if got := len(k.idle); got != lanes {
		t.Errorf("%d idle workers after the run, want %d", got, lanes)
	}
	k.Close()
	settle(t, base)
}

// TestTerminatedProcessesAreDropped: the kernel's process list follows the
// processes alive, not the processes spawned, and sweeping it disturbs
// neither the order Blocked reports nor the numbering.
func TestTerminatedProcessesAreDropped(t *testing.T) {
	const total = 10_000
	k := NewKernel()
	defer k.Close()
	never := k.NewMailbox("never")
	var stuck []*Process
	high := 0
	for i := 0; i < total; i++ {
		if i%1000 == 0 {
			// Every so often one that blocks for good, among the churn.
			stuck = append(stuck, k.Spawn(fmt.Sprintf("stuck%d", i), func(p *Process) { p.Receive(never) }))
		}
		k.Spawn("short", func(p *Process) { p.Hold(1) })
		k.Run()
		if n := len(k.procs); n > high {
			high = n
		}
	}
	if limit := 2*len(stuck) + 2; high > limit {
		t.Errorf("process list reached %d entries with at most %d processes alive; want at most %d", high, len(stuck)+1, limit)
	}
	if got := k.Blocked(); !reflect.DeepEqual(got, stuck) {
		t.Errorf("Blocked() = %v, want the %d stuck processes in spawn order", got, len(stuck))
	}
	last := k.Spawn("last", func(*Process) {})
	if want := fmt.Sprintf("process %q (#%d)", "last", total+len(stuck)); last.String() != want {
		t.Errorf("process %v, want %s: ids count spawns", last, want)
	}
}

// TestAllocFreeSpawnReuse pins what a short-lived process costs once a worker
// is idle: its Process record and, amortised, its slot in the kernel's
// process list — no goroutine, no stack, no channel.
func TestAllocFreeSpawnReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	defer k.Close()
	body := func(p *Process) { p.Hold(1) }
	for i := 0; i < 64; i++ { // warm up: the worker, the slab
		k.Spawn("short", body)
		k.Run()
	}
	if got := testing.AllocsPerRun(1000, func() {
		k.Spawn("short", body)
		k.Run()
	}); got > 2 {
		t.Errorf("spawn, hold, return allocates %v objects per process; want at most 2", got)
	}
}

// A worker that has carried a panicking body is as good as new: the panic
// surfaces at Run's caller, naming the process (or goes to OnPanic), and the
// next process to take the worker never notices.
func TestBodyPanicOnReusedWorker(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var ranOn []string
	spawn := func(name string, then func()) *Process {
		return k.Spawn(name, func(p *Process) {
			ranOn = append(ranOn, goid())
			p.Hold(1)
			then()
		})
	}
	spawn("first", func() {})
	k.Run()

	spawn("boom", func() { panic("kaput") })
	v := recovered(func() { k.Run() })
	if v == nil || !strings.Contains(fmt.Sprint(v), "kaput") || !strings.Contains(fmt.Sprint(v), `"boom"`) {
		t.Fatalf("Run panicked with %v; want the body's panic, naming the process", v)
	}

	var handled any
	spawn("contained", func() { panic("handled") }).OnPanic = func(v any) { handled = v }
	k.Run()
	if handled != "handled" {
		t.Fatalf("OnPanic got %v, want handled", handled)
	}

	done := false
	last := spawn("last", func() { done = true })
	k.Run()
	if !done || !last.Terminated() || k.Now() != 4 {
		t.Errorf("after two panics on its worker: done=%v terminated=%v at %d; want a normal run to 4", done, last.Terminated(), k.Now())
	}
	for i, id := range ranOn {
		if id != ranOn[0] {
			t.Errorf("body %d ran on goroutine %s, the first on %s: this test no longer exercises reuse", i, id, ranOn[0])
		}
	}
	if len(k.idle) != 1 {
		t.Errorf("%d idle workers, want the one", len(k.idle))
	}
}

// Close meets every state a process can be in. Only bodies that have started
// and not ended are unwound — their deferred calls run, once; nothing after
// the blocking call does — and nothing of the run's outcome moves.
func TestCloseInEveryState(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	never := k.NewMailbox("never")
	unit := k.NewResource("unit", 1)
	deferred := map[string]int{}
	var returned []string
	procs := map[string]*Process{}
	spawn := func(name string, block func(p *Process)) {
		procs[name] = k.Spawn(name, func(p *Process) {
			defer func() { deferred[name]++ }()
			block(p)
			returned = append(returned, name)
		})
	}
	spawn("holder", func(p *Process) { p.Hold(1000) })
	spawn("receiver", func(p *Process) { p.Receive(never) })
	spawn("owner", func(p *Process) {
		p.Acquire(unit)
		p.Await(k.NewFuture())
	})
	spawn("acquirer", func(p *Process) { p.Acquire(unit) })
	spawn("chain", func(p *Process) { p.HoldWhile(func() Step { return Step{Hold: 400} }) })
	spawn("queued", func(p *Process) { p.HoldWhile(func() Step { return Step{Acquire: unit} }) })
	spawn("done", func(p *Process) { p.Hold(1) }) // leaves an idle worker
	procs["late"] = k.SpawnAt(5000, "late", func(p *Process) { t.Error("a process never activated ran") })
	k.RunUntil(500)

	type reading struct {
		Blocked  []string
		Reasons  map[string]string
		Events   uint64
		Now      Time
		InUse    int
		QueueLen int
	}
	read := func() reading {
		r := reading{Reasons: map[string]string{}, Events: k.EventCount(), Now: k.Now(), InUse: unit.InUse(), QueueLen: unit.QueueLen()}
		for _, p := range k.Blocked() {
			r.Blocked = append(r.Blocked, p.Name())
		}
		for name, p := range procs {
			r.Reasons[name] = p.BlockReason()
		}
		return r
	}
	before := read()
	wantReasons := map[string]string{
		"holder": "hold", "receiver": "receive never", "owner": "await", "acquirer": "acquire unit",
		"chain": "hold", "queued": "acquire unit", "done": "", "late": "",
	}
	// (Cut mid-run, Blocked counts the two holders as well: it is meant for
	// an idle kernel.)
	if fmt.Sprint(before.Blocked) != "[holder receiver owner acquirer chain queued]" || !reflect.DeepEqual(before.Reasons, wantReasons) {
		t.Fatalf("the run left Blocked %v, reasons %v", before.Blocked, before.Reasons)
	}

	k.Close()
	wantDeferred := map[string]int{"holder": 1, "receiver": 1, "owner": 1, "acquirer": 1, "chain": 1, "queued": 1, "done": 1}
	if !reflect.DeepEqual(deferred, wantDeferred) {
		t.Errorf("deferred calls ran %v, want %v", deferred, wantDeferred)
	}
	if fmt.Sprint(returned) != "[done]" {
		t.Errorf("bodies that got past their blocking call: %v, want only done", returned)
	}
	if after := read(); !reflect.DeepEqual(after, before) {
		t.Errorf("Close moved the run's outcome:\nbefore %+v\nafter  %+v", before, after)
	}
	if procs["holder"].Terminated() || !procs["done"].Terminated() {
		t.Error("Close changed which processes count as terminated")
	}
	settle(t, base)

	k.Close() // a no-op
	if !reflect.DeepEqual(deferred, wantDeferred) {
		t.Errorf("a second Close ran deferred calls again: %v", deferred)
	}
}

// A deferred call of a body that panics while Close unwinds it is a bug in
// the model; Close raises it instead of swallowing it.
func TestCloseRaisesPanicOfDeferredCall(t *testing.T) {
	k := NewKernel()
	k.Spawn("sloppy", func(p *Process) {
		defer func() { panic("deferred kaput") }()
		p.Hold(100)
	})
	k.RunUntil(10)
	if v := recovered(k.Close); v != "deferred kaput" {
		t.Errorf("Close panicked with %v, want the deferred call's panic", v)
	}
}

// A kernel belongs to no goroutine: a shard group drives each of its kernels
// from a fresh goroutine per Run. Drive one kernel from a new goroutine on
// every slice (under -race this is what checks that a worker resumed from
// goroutine B sees what goroutine A's slice wrote) and compare with the same
// program driven from one.
func TestDrivenFromAnotherGoroutineEachSlice(t *testing.T) {
	const slices = 1000
	program := func(drive func(k *Kernel, until Time)) []string {
		k := NewKernel()
		var log []string
		a, b := k.NewMailbox("a"), k.NewMailbox("b")
		k.Spawn("ping", func(p *Process) {
			for i := 0; ; i++ {
				b.Send(i)
				log = append(log, fmt.Sprintf("%d ping got %v", p.Now(), p.Receive(a)))
				p.Hold(3)
			}
		})
		k.Spawn("pong", func(p *Process) {
			for {
				v := p.Receive(b)
				p.Hold(2)
				a.Send(v)
				// Churn: a child per round, first activated by whichever
				// goroutine drives the slice it falls in.
				k.Spawn("child", func(c *Process) {
					c.Hold(4)
					log = append(log, fmt.Sprintf("%d child of round %v done", c.Now(), v))
				})
			}
		})
		for i := 1; i <= slices; i++ {
			drive(k, Time(i*7))
		}
		k.Close()
		return log
	}
	one := program(func(k *Kernel, until Time) { k.RunUntil(until) })
	many := program(func(k *Kernel, until Time) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			k.RunUntil(until)
		}()
		<-done
	})
	if len(one) < slices {
		t.Fatalf("only %d log lines over %d slices: the program is not running", len(one), slices)
	}
	if !reflect.DeepEqual(one, many) {
		t.Errorf("driven from %d goroutines the program logged %d lines, from one %d; first lines %v / %v",
			slices, len(many), len(one), many[:3], one[:3])
	}
}
