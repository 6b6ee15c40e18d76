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
		if !r.ahead {
			return w
		}
		if !r.c.Ahead(w) {
			if s, ok := k.Rejoin(); ok {
				return s // w ended the line at the horizon
			}
			return w
		}
	}
	if s, ok := k.Rejoin(); ok {
		return s
	}
	r.log = append(r.log, fmt.Sprintf("done %d", k.Now()))
	return Step{Done: true}
}

// daemonLog is a daemon chain: it fires at each of its instants, logs what
// it sees there — the clock, the kernel's event count and whatever progress
// reports — and queues its next instant, delay cycles on, from its own
// event, the way a sampler re-arms.
func daemonLog(k *Kernel, log *[]string, progress func() string, at Time, delays ...Time) {
	var fire func()
	fire = func() {
		*log = append(*log, fmt.Sprintf("daemon at %d after %d events: %s", k.Now(), k.EventCount(), progress()))
		if len(delays) > 0 {
			d := delays[0]
			delays = delays[1:]
			k.AtDaemon(k.Now()+d, fire)
		}
	}
	k.AtDaemon(at, fire)
}

// Running ahead serves the same waits at the same times, takes the same
// units and ends at the same time after the same number of events as the
// per-event path; only the dispatches differ. A daemon event bounds the
// line: it sees the clock, the event count and the chains' progress it sees
// per event, whether a hold ends at its instant, crosses it or is a zero
// hold there, and a long last level may span a daemon queued while it is
// pending. Driven in RunUntil slices, every slice ends where it does per
// event.
func TestAheadCountsEvents(t *testing.T) {
	type outcome struct {
		end                         Time
		events, dispatches, acquire uint64
		busy                        Time
		log, peer, spans, daemons   []string
	}
	type daemon struct {
		at     Time
		delays []Time
	}
	waits := func(bus *Resource) []Step { return []Step{{Hold: 3}, {Hold: 0}, {Acquire: bus}, {Hold: 5}, {Hold: 2}} }
	holds := func(hs ...Time) func(*Resource) []Step {
		return func(*Resource) []Step {
			var s []Step
			for _, h := range hs {
				s = append(s, Step{Hold: h})
			}
			return s
		}
	}
	cases := []struct {
		name    string
		waits   func(bus *Resource) []Step
		daemons []daemon
		slice   Time   // RunUntil slices of this many cycles; 0: Run
		saved   uint64 // events less dispatches
	}{
		// Four holds run ahead of, one rejoin.
		{name: "no daemon", waits: waits, saved: 3},
		{name: "daemon past the end", waits: waits, daemons: []daemon{{at: 50}}, saved: 3},
		// The hold 3→8 is the line's last level; the hold 8→10 is the first
		// of the rejoin, and fires as an event.
		{name: "hold ends at the daemon", waits: waits, daemons: []daemon{{at: 8}}, saved: 2},
		{name: "hold ends after the daemon", waits: waits, daemons: []daemon{{at: 6}}, saved: 2},
		// The first hold reaches the daemon: nothing runs ahead before it.
		{name: "first hold ends at the daemon", waits: waits, daemons: []daemon{{at: 3}}, saved: 2},
		// The hold 0→4 crosses the daemon at 1 and fires at 4 before the
		// daemon that one queues there: the zero hold after it is refused
		// and fires after that daemon, as it does per event.
		{name: "zero hold at the daemon", waits: holds(4, 0, 2, 1), daemons: []daemon{{at: 1, delays: []Time{3}}}, saved: 1},
		// The last level 3→303 spans the daemon at 5 and the one it queues
		// at 7, while the line is pending.
		{name: "long last level spans two daemons", waits: holds(3, 300, 2),
			daemons: []daemon{{at: 5, delays: []Time{2}}}, saved: 1},
		{name: "daemons at every cycle", waits: waits, daemons: []daemon{{at: 1, delays: []Time{1, 1, 1, 1, 1, 1, 1, 1, 1}}}},
		{name: "two daemon chains", waits: waits, daemons: []daemon{{at: 2, delays: []Time{6}}, {at: 4, delays: []Time{1}}}, saved: 1},
		// RunUntil(t) bounds a line at t+1.
		{name: "RunUntil slices", waits: waits, slice: 2, saved: 1},
		{name: "RunUntil slices and a daemon", waits: waits, slice: 3, daemons: []daemon{{at: 7}}, saved: 2},
		{name: "RunUntil past the end", waits: waits, slice: 100, saved: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(ahead bool) outcome {
				k := NewKernel()
				res := k.NewResource("bus", 1)
				r := newRacer(k, ahead, tc.waits(res)...)
				var spans, daemons []string
				r.c.Spans = func(from, to Time, reason Reason) {
					spans = append(spans, fmt.Sprintf("%d-%d %s", from, to, k.ReasonText(reason)))
				}
				// A peer with events of its own inside the run ahead, and one at the
				// instant it ends.
				peer := newRacer(k, false, Step{Hold: 4}, Step{Hold: 6})
				r.c.Start()
				peer.c.Start()
				progress := func() string { return fmt.Sprintf("racer %d, peer %d", len(r.log), len(peer.log)) }
				for _, d := range tc.daemons {
					daemonLog(k, &daemons, progress, d.at, d.delays...)
				}
				end := k.Now()
				if tc.slice == 0 {
					end = k.Run()
				} else {
					for len(r.waits) > 0 || len(peer.waits) > 0 || k.pendingWork() {
						end = k.RunUntil(end + tc.slice)
						daemons = append(daemons, fmt.Sprintf("slice to %d after %d events: %s", end, k.EventCount(), progress()))
					}
				}
				return outcome{end, k.EventCount(), k.Dispatches(), res.Acquires(), res.BusyCycles(), r.log, peer.log, spans, daemons}
			}
			perEvent, ahead := run(false), run(true)
			if perEvent.dispatches != perEvent.events {
				t.Errorf("per-event path: %d dispatches of %d events", perEvent.dispatches, perEvent.events)
			}
			if ahead.dispatches != perEvent.events-tc.saved {
				t.Errorf("running ahead: %d dispatches, want %d", ahead.dispatches, perEvent.events-tc.saved)
			}
			ahead.dispatches = perEvent.dispatches
			if !reflect.DeepEqual(perEvent, ahead) {
				t.Errorf("running ahead:\n%+v\nper event:\n%+v", ahead, perEvent)
			}
			if tc.name != "no daemon" {
				return
			}
			if want := []string{"0", "3", "3", "3", "8", "done 10"}; !reflect.DeepEqual(ahead.log, want) {
				t.Errorf("operations started at %v, want %v", ahead.log, want)
			}
			// Every hold that took time, once; the rejoin that stands for them
			// reports nothing of its own.
			if want := []string{"0-3 hold", "3-8 hold", "8-10 hold"}; !reflect.DeepEqual(ahead.spans, want) {
				t.Errorf("spans %q, want %q", ahead.spans, want)
			}
		})
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

// With no line open, a hold that would end at or after the kernel's horizon
// is refused — Ahead reports false and changes nothing: outside a driver,
// past RunUntil's bound or the window's end, and at or past a queued daemon
// event. A hold that ends before it runs ahead.
func TestAheadRefused(t *testing.T) {
	try := func(k *Kernel) string {
		before, events := k.Now(), k.EventCount()
		var c Chain
		c.Init(k, nil)
		if c.Ahead(Step{Hold: 10}) { // from 1 to 11
			k.Rejoin()
			return "ran ahead"
		}
		if k.Now() != before || k.EventCount() != events {
			return "refused, but moved the kernel"
		}
		return "refused"
	}
	daemonAt := func(at Time) func(k *Kernel, probe func()) {
		return func(k *Kernel, probe func()) {
			k.AtDaemon(at, func() {})
			k.At(1, probe)
			k.Run()
		}
	}
	cases := map[string]func(k *Kernel, probe func()){
		"outside a driver":        func(k *Kernel, probe func()) { probe() },
		"under Run":               func(k *Kernel, probe func()) { k.At(1, probe); k.Run() },
		"under RunUntil(5)":       func(k *Kernel, probe func()) { k.At(1, probe); k.RunUntil(5) },
		"under RunUntil(10)":      func(k *Kernel, probe func()) { k.At(1, probe); k.RunUntil(10) },
		"under RunUntil(11)":      func(k *Kernel, probe func()) { k.At(1, probe); k.RunUntil(11) },
		"under runWindow(11)":     func(k *Kernel, probe func()) { k.At(1, probe); k.runWindow(11) },
		"under runWindow(12)":     func(k *Kernel, probe func()) { k.At(1, probe); k.runWindow(12) },
		"with a daemon at 11":     daemonAt(11),
		"with a daemon at 12":     daemonAt(12),
		"with a daemon at 100":    daemonAt(100),
		"after the daemon fired":  daemonAt(1),
		"with a daemon at 5":      daemonAt(5),
		"with two daemons, at 12": func(k *Kernel, probe func()) { k.AtDaemon(30, func() {}); daemonAt(12)(k, probe) },
		"with two daemons, at 11": func(k *Kernel, probe func()) { k.AtDaemon(30, func() {}); daemonAt(11)(k, probe) },
	}
	want := map[string]string{
		"outside a driver": "refused", "under Run": "ran ahead",
		"under RunUntil(5)": "refused", "under RunUntil(10)": "refused", "under RunUntil(11)": "ran ahead",
		"under runWindow(11)": "refused", "under runWindow(12)": "ran ahead",
		"with a daemon at 11": "refused", "with a daemon at 12": "ran ahead", "with a daemon at 100": "ran ahead",
		"after the daemon fired": "ran ahead", "with a daemon at 5": "refused",
		"with two daemons, at 12": "ran ahead", "with two daemons, at 11": "refused",
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
		// A line 1→3→5 is pending until its level at 3 fires: a daemon
		// queued from the event at 2 would fall behind it.
		"daemon behind a line": func(k *Kernel, c *Chain) {
			k.At(2, func() { k.AtDaemon(4, func() {}) })
			r := newRacer(k, true, Step{Hold: 2}, Step{Hold: 2})
			r.c.Start()
		},
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
			if !a.ahead {
				return Step{Hold: h}
			}
			if a.c.Ahead(Step{Hold: h}) {
				continue
			}
			if s, ok := k.Rejoin(); ok {
				return s
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
// same spans of its waits in the same order. Daemon chains fire at seeded
// instants among them and log the clock, the event count and every actor's
// progress as they find them per event.
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
			progress := func() string {
				var b strings.Builder
				for _, a := range actors {
					fmt.Fprintf(&b, " %s:%d.%d", a.name, a.seg, a.i)
				}
				return b.String()
			}
			for i, n := 0, r.Intn(4); i < n; i++ {
				delays := make([]Time, r.Intn(6))
				for j := range delays {
					delays[j] = Time(1 + r.Intn(12))
				}
				daemonLog(k, &log, progress, Time(r.Intn(40)), delays...)
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
