package pearl

import (
	"fmt"
	"reflect"
	"testing"
)

// script is a chain owner that runs a fixed list of waits and logs every
// call of its step function and every span its chain reports.
type script struct {
	c     Chain
	name  string
	waits []Step
	log   *[]string
}

func newScript(k *Kernel, name string, log *[]string, waits ...Step) *script {
	s := &script{name: name, waits: waits, log: log}
	s.c.Init(k, s.step)
	s.c.Spans = func(from, to Time, reason Reason) {
		*s.log = append(*s.log, fmt.Sprintf("%s span %d-%d %s", s.name, from, to, k.ReasonText(reason)))
	}
	return s
}

func (s *script) step() Step {
	*s.log = append(*s.log, fmt.Sprintf("%s step at %d", s.name, s.c.k.Now()))
	if len(s.waits) == 0 {
		return Step{Done: true}
	}
	w := s.waits[0]
	s.waits = s.waits[1:]
	return w
}

func TestChainWaits(t *testing.T) {
	k := NewKernel()
	var log []string
	r := k.NewResource("r", 1)
	f := k.NewFuture()
	a := newScript(k, "a", &log, Step{Hold: 3}, Step{Acquire: r}, Step{Hold: 5}, Step{Await: f})
	b := newScript(k, "b", &log, Step{Hold: 4}, Step{Acquire: r}, Step{Await: f})
	a.c.Start()
	b.c.Start()
	k.RunUntil(6)
	if got := b.c.Reason(); got != "acquire r" {
		t.Errorf("b waits for %q at 6, want the resource a holds", got)
	}
	k.At(8, r.Release) // a's unit, handed to b
	k.At(20, func() { f.Complete("v") })
	k.Run()
	want := []string{
		"a step at 0", "b step at 0",
		"a span 0-3 hold", "a step at 3", "a step at 3", // the free unit is no wait
		"b span 0-4 hold", "b step at 4",
		"a span 3-8 hold", "a step at 8",
		"b span 4-8 acquire r", "b step at 8",
		"a span 8-20 await", "a step at 20", // woken in arrival order
		"b span 8-20 await", "b step at 20",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("log:\n%q\nwant\n%q", log, want)
	}
	if r.Acquires() != 2 || r.WaitCycles() != 4 {
		t.Errorf("resource booked %d acquisitions, %d wait cycles; want 2, 4", r.Acquires(), r.WaitCycles())
	}
	if a.c.Reason() != "" || b.c.Reason() != "" {
		t.Errorf("ended chains still wait: %q, %q", a.c.Reason(), b.c.Reason())
	}
	// An ended chain starts again, with no span for the time it stood still.
	log = nil
	a.waits = []Step{{Hold: 1}}
	a.c.Start()
	k.Run()
	if want := []string{"a step at 20", "a span 20-21 hold", "a step at 21"}; !reflect.DeepEqual(log, want) {
		t.Errorf("restart log %q, want %q", log, want)
	}
}

// A chain costs one event per wait it has to make: none for a free unit or a
// complete future, and no switch at all.
func TestChainEvents(t *testing.T) {
	k := NewKernel()
	var log []string
	f := k.NewFuture()
	f.Complete(nil)
	r := k.NewResource("r", 1)
	s := newScript(k, "s", &log, Step{Await: f}, Step{Acquire: r}, Step{Hold: 0}, Step{Hold: 2})
	s.c.Start()
	k.Run()
	if got := k.EventCount(); got != 3 {
		t.Errorf("%d events; want 3: the start and the two holds", got)
	}
	if k.Switches() != 0 {
		t.Errorf("%d switches; want 0", k.Switches())
	}
}
