package pearl

import "fmt"

// Running ahead. A chain whose step function depends on nothing outside its
// owner for a while — a node with one CPU and no shared memory, between two
// communication operations — may serve that stretch's waits itself (Ahead):
// each hold advances the clock in place and counts as the event it
// replaces, with no slot, no queue and no dispatch. Where the stretch ends,
// Rejoin sets the clock back and hands the chain one hold to the time the
// stretch reached, which fires as a real event and replaces the last
// skipped one in the count.
//
// The rejoin also takes the place its per-event twin would have among the
// events of its instant, so that running ahead changes nothing but the
// dispatches. On the per-event path a chain's hold is scheduled when its
// previous hold fires, so among the events of one instant it sorts after
// every event scheduled before that moment and before every event scheduled
// after it. The kernel keeps the line's levels — when each skipped hold
// ended — and, as the real events around them fire, the sequence count each
// level was scheduled with: a level sorts after the real events numbered
// below its count and before the rest, and two levels with one count sort as
// the levels, or the real events, that scheduled them. Real sequence numbers
// are even; a rejoin in the queue takes the odd number just below its
// count, and ties with another rejoin only.

// aheadLine is the record of one run ahead: the straight line of one chain.
type aheadLine struct {
	from  Time // the clock when the line began
	start pos  // the event firing then, which scheduled the first hold
	// The levels: hold j ended at level j, hold[j] cycles after level
	// j-1 (level -1 is from). A hold of longHold cycles or more is in long,
	// in order; end is the last level's time.
	hold []uint8
	long []Time
	end  Time
	// The sequence count each level was scheduled with — the next even
	// number at that moment — as runs of levels: counts[i] holds from level
	// counts[i].from on. Level 0's is known at Rejoin, level j+1's once the
	// real events before level j have fired.
	counts []count
	next   level // the first level not yet fired
	chain  *Chain
}

// longHold marks a hold kept in aheadLine.long.
const longHold = 255

// level is a level of a line: its index, its time, and the number of long
// holds up to and including it.
type level struct {
	j    int
	t    Time
	long int
}

// count is the sequence count of the levels from `from` on.
type count struct {
	from int
	c    uint64
}

// count returns level j's sequence count.
func (l *aheadLine) count(j int) uint64 {
	i := len(l.counts) - 1
	for l.counts[i].from > j {
		i--
	}
	return l.counts[i].c
}

// length is the line's number of levels.
func (l *aheadLine) length() int { return len(l.hold) }

// step moves v to the level after it.
func (l *aheadLine) step(v level) level {
	v.j++
	h := Time(l.hold[v.j])
	if h == longHold {
		h = l.long[v.long]
		v.long++
	}
	v.t += h
	return v
}

// back moves v to the level before it.
func (l *aheadLine) back(v level) level {
	h := Time(l.hold[v.j])
	if h == longHold {
		v.long--
		h = l.long[v.long]
	}
	v.t -= h
	v.j--
	return v
}

// pos is a point in the firing order: a real event, by time and sequence
// number, when line is nil, else a level of line (index -1: its start).
type pos struct {
	line *aheadLine
	lv   level
	at   Time
	seq  uint64
}

// last is the position of the line's rejoin: its last level.
func (l *aheadLine) last() pos {
	return pos{line: l, lv: level{l.length() - 1, l.end, len(l.long)}}
}

// time is when p fires.
func (p pos) time() Time {
	if p.line != nil {
		return p.lv.t
	}
	return p.at
}

// before reports whether position a fires before position b.
func before(a, b pos) bool {
	for {
		if a.line != nil && a.lv.j < 0 {
			a = a.line.start
		}
		if b.line != nil && b.lv.j < 0 {
			b = b.line.start
		}
		if at, bt := a.time(), b.time(); at != bt {
			return at < bt
		}
		switch {
		case a.line == nil && b.line == nil:
			return a.seq < b.seq
		case a.line == nil:
			return a.seq < b.line.count(b.lv.j)
		case b.line == nil:
			return a.line.count(a.lv.j) <= b.seq
		}
		if ca, cb := a.line.count(a.lv.j), b.line.count(b.lv.j); ca != cb {
			return ca < cb
		}
		// Scheduled between the same two real events: as the levels
		// that scheduled them fired.
		a.lv, b.lv = a.line.back(a.lv), b.line.back(b.lv)
	}
}

// Ahead serves the chain's wait s in place, without an event, for a chain
// whose step function depends on nothing outside itself until it next gives
// control back, and reports true; the step function then goes on at once.
// A hold advances the clock by its duration and counts as the event it
// replaces, so that anything reading the clock (a Resource's occupancy, a
// cache's miss timing) reads what it would have, and one that takes time is
// reported to Spans as the event ending it would report it; a unit of a
// Resource is taken at once, and a Future must be complete: a chain whose
// wait depends on another component was not private, and Ahead panics.
//
// No line passes the kernel's horizon: the first queued daemon event (a
// sampler tick, a fault transition) or the driver's bound (RunUntil's t+1,
// the window's end; 0 outside a driver). A hold ending at or after
// it is served as the line's last level and Ahead reports false: the chain
// must Rejoin at once, so the daemon fires in its per-event place and sees
// the per-event state. With no line open such a hold is refused, as is the
// first hold of a line that would begin in a rejoin: Ahead reports false
// having done nothing. Until the chain calls Rejoin, nothing may schedule
// an event.
func (c *Chain) Ahead(s Step) bool {
	k := c.k
	if k.atRejoin && k.line == nil {
		return false
	}
	switch {
	case s.Acquire != nil:
		if !s.Acquire.TryAcquire() {
			panic("pearl: running ahead, but " + s.Acquire.name + " is not free")
		}
	case s.Await != nil:
		if !s.Await.done {
			panic("pearl: running ahead, but awaiting a future not complete")
		}
	default:
		if s.Hold < 0 {
			panic(fmt.Sprintf("pearl: chain asked to hold %d: negative duration", s.Hold))
		}
		last := k.now+s.Hold >= k.horizon
		l := k.line
		if l == nil {
			if last {
				return false
			}
			l = k.newLine()
		}
		if s.Hold < longHold {
			l.hold = append(l.hold, uint8(s.Hold))
		} else {
			l.hold = append(l.hold, longHold)
			l.long = append(l.long, s.Hold)
		}
		k.now += s.Hold
		k.eventCount++
		k.skipped++
		if c.Spans != nil && s.Hold > 0 {
			c.Spans(k.now-s.Hold, k.now, ReasonHold)
		}
		return !last
	}
	return true
}

// newLine begins a run ahead at the current time.
func (k *Kernel) newLine() *aheadLine {
	var l *aheadLine
	if n := len(k.spare); n > 0 {
		l = k.spare[n-1]
		k.spare = k.spare[:n-1]
	} else {
		l = new(aheadLine)
	}
	l.from, l.start = k.now, pos{at: k.now, seq: k.firingSeq}
	l.hold, l.long, l.counts = l.hold[:0], l.long[:0], l.counts[:0]
	k.line = l
	return l
}

// Rejoin ends a run ahead: it sets the clock back to where the run ahead
// began and returns the step the chain is to return at once, a hold to the
// time the run ahead reached; ok is false, and nothing changes, when no hold
// was run ahead of. The hold fires as a real event, in the place its
// per-event twin would have, and replaces the last skipped hold in the
// count. The hold reports no span when it ends: the holds it stands for
// reported theirs when they were run ahead of.
func (k *Kernel) Rejoin() (s Step, ok bool) {
	l := k.line
	if l == nil {
		return Step{}, false
	}
	k.line, k.rejoined = nil, l
	s = Step{Hold: k.now - l.from}
	l.end, k.now = k.now, l.from
	l.next = l.step(level{j: -1, t: l.from})
	l.counts = append(l.counts, count{0, k.seq + 2})
	k.eventCount--
	k.skipped--
	return s, true
}

// Dispatches returns how many of EventCount's events the event loop actually
// fired: the count less the holds chains ran ahead of.
func (k *Kernel) Dispatches() uint64 { return k.eventCount - k.skipped }

// pendRejoin makes the line just rejoined c's wait. Its hold is queued once
// the real events around its levels have fired (place); until then it
// counts as queued.
func (k *Kernel) pendRejoin(c *Chain) {
	l := k.rejoined
	k.rejoined = nil
	l.chain, c.rejoin = c, l
	k.pend = append(k.pend, l)
	k.rejoining++
	k.live++
}

// place fires the levels of the pending lines that come before the next
// event to fire and before every pending rejoin, and queues the rejoin of
// each line whose levels but the last have fired. A level fires before
// another line's rejoin when it ends earlier; where it ends at the same
// time, the earliest pending level of all fires first, one at a time. It
// goes round until no level can fire before the next event, which may be a
// rejoin just queued.
func (k *Kernel) place() {
	for len(k.pend) > 0 {
		for i := 0; i < len(k.pend); {
			if l := k.pend[i]; l.next.j == l.length()-1 {
				k.queueRejoin(l)
				k.pend[i] = k.pend[len(k.pend)-1]
				k.pend = k.pend[:len(k.pend)-1]
				continue
			}
			i++
		}
		var next pos
		idx, _, ok := k.frontRejoins()
		if ok {
			next = k.slotPos(idx)
		}
		// The two earliest pending rejoins: no level at or after another
		// line's may fire before it is placed.
		end1, end2 := Forever, Forever
		for _, l := range k.pend {
			if l.end < end1 {
				end1, end2 = l.end, end1
			} else if l.end < end2 {
				end2 = l.end
			}
		}
		fired := false
		var first *aheadLine // the pending line with the earliest level
		for _, l := range k.pend {
			horizon := end1
			if l.end == end1 {
				horizon = end2
			}
			if k.settle(l, next, ok, horizon) {
				fired = true
			}
			if first == nil || before(pos{line: l, lv: l.next}, pos{line: first, lv: first.next}) {
				first = l
			}
		}
		if fired {
			continue
		}
		// Every pending line's next level ends where another line's rejoin
		// does: the earliest of them all fires, unless the next event comes
		// first.
		if first == nil || ok && !before(pos{line: first, lv: first.next}, next) {
			return
		}
		k.fireLevel(first, next, ok, first.next.t)
	}
}

// slotPos is the position of a queued event.
func (k *Kernel) slotPos(idx int32) pos {
	if s := &k.slots[idx]; s.kind != evRejoin {
		return pos{at: s.at, seq: s.seq}
	}
	return k.slots[idx].chain.rejoin.last()
}

// queueRejoin queues the rejoin of l, whose levels but the last have fired,
// under the odd sequence number just below its count: after the real events
// scheduled before its last level, before the rest. Rejoins wait apart from
// the wheel and the heap, in the order the lines' records give them, so
// that two with one number keep their order too.
func (k *Kernel) queueRejoin(l *aheadLine) {
	idx := k.slot(l.end, l.count(l.next.j)-1, evRejoin, nil, l.chain)
	at := l.last()
	i := len(k.rejoins)
	for i > 0 && before(at, k.slotPos(k.rejoins[i-1])) {
		i--
	}
	k.rejoins = append(k.rejoins, 0)
	copy(k.rejoins[i+1:], k.rejoins[i:])
	k.rejoins[i] = idx
}

// settle fires the levels of l that come before next (every one when
// nothing is next) and end before horizon, and reports whether it fired
// any.
func (k *Kernel) settle(l *aheadLine, next pos, ok bool, horizon Time) bool {
	last, fired := l.length()-1, false
	for l.next.j < last && l.next.t < horizon && (!ok || before(pos{line: l, lv: l.next}, next)) {
		k.fireLevel(l, next, ok, horizon)
		fired = true
	}
	return fired
}

// fireLevel fires l's next level: the one after it is scheduled with the
// count of this moment, and fires too if it ends before next's instant and
// before horizon, and so on.
func (k *Kernel) fireLevel(l *aheadLine, next pos, ok bool, horizon Time) {
	last := l.length() - 1
	l.next = l.step(l.next)
	if c := k.seq + 2; l.counts[len(l.counts)-1].c != c {
		l.counts = append(l.counts, count{l.next.j, c})
	}
	for l.next.j < last && l.next.t < horizon && (!ok || l.next.t < next.time()) {
		l.next = l.step(l.next)
	}
}
