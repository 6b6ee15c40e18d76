package pearl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// racer is a chain owner that runs a fixed list of waits, serving them with
// Ahead when it may, and logs the clock at every operation it starts.
type racer struct {
	c     Chain
	waits []Step
	ahead bool
	log   []string
}

func newRacer(k *Kernel, ahead bool, waits ...Step) *racer {
	r := &racer{waits: waits, ahead: ahead}
	r.c.Init(k, r.step)
	return r
}

func (r *racer) step() Step {
	k := r.c.k
	for len(r.waits) > 0 {
		w := r.waits[0]
		r.waits = r.waits[1:]
		r.log = append(r.log, fmt.Sprintf("%d", k.Now()))
		if !r.ahead || !r.c.Ahead(w) {
			return w
		}
	}
	if s, ok := k.Rejoin(); ok {
		return s
	}
	r.log = append(r.log, fmt.Sprintf("done %d", k.Now()))
	return Step{Done: true}
}

// Running ahead serves the same waits at the same times, takes the same
// units and ends at the same time after the same number of events as the
// per-event path; only the dispatches differ.
func TestAheadCountsEvents(t *testing.T) {
	type outcome struct {
		end                         Time
		events, dispatches, acquire uint64
		busy                        Time
		log, peer, spans            []string
	}
	run := func(ahead bool) outcome {
		k := NewKernel()
		res := k.NewResource("bus", 1)
		r := newRacer(k, ahead, Step{Hold: 3}, Step{Hold: 0}, Step{Acquire: res}, Step{Hold: 5}, Step{Hold: 2})
		var spans []string
		r.c.Spans = func(from, to Time, reason Reason) {
			spans = append(spans, fmt.Sprintf("%d-%d %s", from, to, k.ReasonText(reason)))
		}
		// A peer with events of its own inside the run ahead, and one at the
		// instant it ends.
		peer := newRacer(k, false, Step{Hold: 4}, Step{Hold: 6})
		r.c.Start()
		peer.c.Start()
		end := k.Run()
		return outcome{end, k.EventCount(), k.Dispatches(), res.Acquires(), res.BusyCycles(), r.log, peer.log, spans}
	}
	perEvent, ahead := run(false), run(true)
	if perEvent.dispatches != perEvent.events {
		t.Errorf("per-event path: %d dispatches of %d events", perEvent.dispatches, perEvent.events)
	}
	if ahead.dispatches != perEvent.events-3 { // four holds run ahead of, one rejoin
		t.Errorf("running ahead: %d dispatches, want %d", ahead.dispatches, perEvent.events-3)
	}
	ahead.dispatches = perEvent.dispatches
	if !reflect.DeepEqual(perEvent, ahead) {
		t.Errorf("running ahead:\n%+v\nper event:\n%+v", ahead, perEvent)
	}
	if want := []string{"0", "3", "3", "3", "8", "done 10"}; !reflect.DeepEqual(ahead.log, want) {
		t.Errorf("operations started at %v, want %v", ahead.log, want)
	}
	// Every hold that took time, once; the rejoin that stands for them
	// reports nothing of its own.
	if want := []string{"0-3 hold", "3-8 hold", "8-10 hold"}; !reflect.DeepEqual(ahead.spans, want) {
		t.Errorf("spans %q, want %q", ahead.spans, want)
	}
}

// Rejoin sets the clock back to where the run ahead began and returns the
// distance; with nothing run ahead of it changes nothing.
func TestRejoinRestoresClock(t *testing.T) {
	k := NewKernel()
	var c Chain
	c.Init(k, nil)
	var got []string
	k.At(5, func() {
		if s, ok := k.Rejoin(); ok {
			got = append(got, fmt.Sprintf("rejoin %d before any hold", s.Hold))
		}
		c.Ahead(Step{Hold: 4})
		c.Ahead(Step{Hold: 3})
		got = append(got, fmt.Sprintf("ahead at %d after %d events", k.Now(), k.EventCount()))
		s, ok := k.Rejoin()
		got = append(got, fmt.Sprintf("rejoined %v: hold %d at %d after %d events", ok, s.Hold, k.Now(), k.EventCount()))
		_, ok = k.Rejoin()
		got = append(got, fmt.Sprintf("again %v", ok))
	})
	k.Run()
	want := []string{"ahead at 12 after 3 events", "rejoined true: hold 7 at 5 after 2 events", "again false"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

// Running ahead is refused — Ahead reports false and changes nothing —
// outside Run, under RunUntil and the window executor, and under Run while
// a daemon event is queued.
func TestAheadRefused(t *testing.T) {
	try := func(k *Kernel) string {
		before, events := k.Now(), k.EventCount()
		var c Chain
		c.Init(k, nil)
		if c.Ahead(Step{Hold: 10}) {
			k.Rejoin()
			return "ran ahead"
		}
		if k.Now() != before || k.EventCount() != events {
			return "refused, but moved the kernel"
		}
		return "refused"
	}
	cases := map[string]func(k *Kernel, probe func()){
		"outside a driver": func(k *Kernel, probe func()) { probe() },
		"under Run":        func(k *Kernel, probe func()) { k.At(1, probe); k.Run() },
		"under RunUntil":   func(k *Kernel, probe func()) { k.At(1, probe); k.RunUntil(5) },
		"under runWindow":  func(k *Kernel, probe func()) { k.At(1, probe); k.runWindow(5) },
		"with a daemon queued": func(k *Kernel, probe func()) {
			k.AtDaemon(100, func() {})
			k.At(1, probe)
			k.Run()
		},
		"after the daemon fired": func(k *Kernel, probe func()) {
			k.AtDaemon(1, func() {})
			k.At(2, probe)
			k.Run()
		},
	}
	want := map[string]string{
		"outside a driver": "refused", "under Run": "ran ahead", "under RunUntil": "refused",
		"under runWindow": "refused", "with a daemon queued": "refused", "after the daemon fired": "ran ahead",
	}
	for name, drive := range cases {
		k := NewKernel()
		got := "never probed"
		drive(k, func() { got = try(k) })
		if got != want[name] {
			t.Errorf("%s: %s, want %s", name, got, want[name])
		}
	}
}

// Nothing may be scheduled while a chain runs ahead, and a wait that another
// component would end cannot be served ahead: each panics.
func TestAheadPanics(t *testing.T) {
	for name, body := range map[string]func(k *Kernel, c *Chain){
		"schedule":      func(k *Kernel, c *Chain) { c.Ahead(Step{Hold: 1}); k.After(1, func() {}) },
		"start":         func(k *Kernel, c *Chain) { c.Ahead(Step{Hold: 1}); newRacer(k, false).c.Start() },
		"busy unit":     func(k *Kernel, c *Chain) { r := k.NewResource("bus", 1); r.TryAcquire(); c.Ahead(Step{Acquire: r}) },
		"open future":   func(k *Kernel, c *Chain) { c.Ahead(Step{Await: k.NewFuture()}) },
		"negative hold": func(k *Kernel, c *Chain) { c.Ahead(Step{Hold: -1}) },
	} {
		k := NewKernel()
		var c Chain
		c.Init(k, nil)
		k.At(1, func() { body(k, &c) })
		func() {
			defer func() {
				if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "pearl:") {
					t.Errorf("%s: recovered %v, want a pearl panic", name, v)
				}
			}()
			k.Run()
		}()
	}
}

// actor is a chain owner made of segments: a run of holds it may serve
// ahead, then a public action — an entry in the shared log and an event
// of its own a few cycles later, which logs too.
type actor struct {
	c      Chain
	name   string
	ahead  bool
	segs   [][]Time
	echoes []Time
	seg, i int
	log    *[]string
	spans  []string
}

func (a *actor) step() Step {
	k := a.c.k
	for {
		if hs := a.segs[a.seg]; a.i < len(hs) {
			h := hs[a.i]
			a.i++
			if a.ahead && a.c.Ahead(Step{Hold: h}) {
				continue
			}
			return Step{Hold: h}
		}
		if s, ok := k.Rejoin(); ok {
			return s
		}
		*a.log = append(*a.log, fmt.Sprintf("%d %s seg%d", k.Now(), a.name, a.seg))
		name, seg := a.name, a.seg
		k.After(a.echoes[a.seg], func() { *a.log = append(*a.log, fmt.Sprintf("%d %s echo%d", k.Now(), name, seg)) })
		a.seg, a.i = a.seg+1, 0
		if a.seg == len(a.segs) {
			return Step{Done: true}
		}
	}
}

// Running ahead keeps the per-event order of everything public: seeded
// actors whose holds of 0–3 cycles (now and then 255 more) keep ending in
// the same cycles, whose public actions schedule events into those cycles,
// some running ahead and some not, log exactly what they log per event, in
// the same order, after the same number of events, and each reports the
// same spans of its waits in the same order.
func TestAheadOrderMatchesPerEvent(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		run := func(ahead bool) ([]string, uint64) {
			r := NewRNG(seed)
			k := NewKernel()
			var log []string
			var actors []*actor
			for i, n := 0, 2+r.Intn(6); i < n; i++ {
				private := r.Intn(4) != 0
				a := &actor{name: fmt.Sprintf("a%d", i), ahead: ahead && private, log: &log}
				for s, segs := 0, 1+r.Intn(5); s < segs; s++ {
					var hs []Time
					for h, holds := 0, 1+r.Intn(12); h < holds; h++ {
						h := []Time{0, 1, 1, 1, 2, 3}[r.Intn(6)]
						if r.Intn(16) == 0 {
							h += longHold // kept apart in the line's record
						}
						hs = append(hs, h)
					}
					a.segs = append(a.segs, hs)
					a.echoes = append(a.echoes, Time(r.Intn(4)))
				}
				a.c.Init(k, a.step)
				a.c.Spans = func(from, to Time, reason Reason) {
					a.spans = append(a.spans, fmt.Sprintf("%d-%d %s", from, to, k.ReasonText(reason)))
				}
				actors = append(actors, a)
				k.At(Time(r.Intn(3)), a.c.Start)
			}
			k.Run()
			for _, a := range actors {
				log = append(log, fmt.Sprintf("%s spans %q", a.name, a.spans))
			}
			return log, k.EventCount()
		}
		perLog, perEvents := run(false)
		aheadLog, aheadEvents := run(true)
		if !reflect.DeepEqual(aheadLog, perLog) || aheadEvents != perEvents {
			t.Fatalf("seed %d: running ahead logged, after %d events,\n%q\nper event, after %d,\n%q",
				seed, aheadEvents, aheadLog, perEvents, perLog)
		}
	}
}
