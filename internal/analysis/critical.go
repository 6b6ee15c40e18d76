package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mermaid/internal/pearl"
)

// criticalPath walks the recorded spans backwards from the end of the run,
// attributing every cycle of the end-to-end runtime to one component. The
// walk follows the chain of dependencies: from a receive completion it jumps
// through the network to the matching send on the peer node, from a send or
// compute burst it continues backwards on the same processor, and time
// covered by no span is idle. The resulting segments partition [0, total]
// exactly; because only virtual-time measurements are consulted, the walk is
// deterministic for a given run regardless of host scheduling or farm worker
// count.
func (c *Collector) criticalPath(total pearl.Time) []PathSegment {
	if c == nil || total <= 0 {
		return nil
	}
	names := make(map[int]string, len(c.cpus))
	for _, e := range c.cpus {
		names[e.index] = e.name
	}
	name := func(q int) string {
		if n, ok := names[q]; ok {
			return n
		}
		return fmt.Sprintf("cpu%d", q)
	}

	// Per-CPU descending pointers into the end-time-ordered span lists. A
	// pointer only ever moves down, so no span is attributed twice even when
	// the walk revisits a processor after a network jump.
	pt := make([]int, len(c.spans))
	for q := range pt {
		pt[q] = c.spans[q].Len() - 1
	}

	// Start on the processor whose last recorded span ends latest. With no
	// spans at all (task feed disabled, resources-only collector) there is no
	// path to walk.
	cur := -1
	var latest pearl.Time = -1
	for q := range c.spans {
		if n := c.spans[q].Len(); n > 0 && c.spans[q].At(n-1).to > latest {
			latest = c.spans[q].At(n - 1).to
			cur = q
		}
	}
	if cur < 0 {
		return nil
	}

	type segKey struct {
		component string
		kind      string
	}
	acc := make(map[segKey]int64)
	var order []segKey
	emit := func(component, kind string, d pearl.Time) {
		if d <= 0 {
			return
		}
		k := segKey{component, kind}
		if _, ok := acc[k]; !ok {
			order = append(order, k)
		}
		acc[k] += int64(d)
	}

	// latestSend finds the most recent send on CPU q ending at or before t,
	// respecting the descending pointer so already-walked spans are excluded.
	latestSend := func(q int, t pearl.Time) (int, bool) {
		sp := &c.spans[q]
		i := sort.Search(sp.Len(), func(i int) bool { return sp.At(i).to > t }) - 1
		if i > pt[q] {
			i = pt[q]
		}
		for ; i >= 0; i-- {
			if sp.At(i).kind == spanSend {
				return i, true
			}
		}
		return 0, false
	}

	t := total
	for t > 0 {
		sp := &c.spans[cur]
		for pt[cur] >= 0 && sp.At(pt[cur]).to > t {
			pt[cur]--
		}
		if pt[cur] < 0 {
			emit(name(cur), "idle", t)
			break
		}
		s := *sp.At(pt[cur])
		if s.to < t {
			emit(name(cur), "idle", t-s.to)
			t = s.to
		}
		switch s.kind {
		case spanCompute:
			emit(name(cur), "compute", t-s.from)
			t = s.from
			pt[cur]--
		case spanSend:
			emit(name(cur), s.op.String(), t-s.from)
			t = s.from
			pt[cur]--
		case spanRecv:
			// Look for the matching send: the latest send on the peer node's
			// processors completing no later than this receive did.
			lo, hi := 0, len(c.spans)
			if s.peer >= 0 && c.cpusPerNode > 0 {
				lo = int(s.peer) * c.cpusPerNode
				hi = lo + c.cpusPerNode
				if hi > len(c.spans) {
					hi = len(c.spans)
				}
			}
			sender, sendIdx := -1, -1
			var sendEnd pearl.Time = -1
			for q := lo; q < hi; q++ {
				if q == cur {
					continue
				}
				if i, ok := latestSend(q, t); ok && c.spans[q].At(i).to > sendEnd {
					sender, sendIdx, sendEnd = q, i, c.spans[q].At(i).to
				}
			}
			if sender >= 0 && sendEnd > s.from {
				// The receive completed when the message arrived: the gap
				// between the send finishing and the receive finishing is
				// network transit, then the walk continues on the sender.
				emit("network", "network", t-sendEnd)
				t = sendEnd
				if sendIdx < pt[sender] {
					pt[sender] = sendIdx
				}
				pt[cur]--
				cur = sender
			} else {
				// Message was already there (or no sender recorded): the
				// receive itself is pure overhead/wait on this processor.
				emit(name(cur), s.op.String()+" wait", t-s.from)
				t = s.from
				pt[cur]--
			}
		}
	}

	segs := make([]PathSegment, 0, len(order))
	for _, k := range order {
		segs = append(segs, PathSegment{
			Component: k.component,
			Kind:      k.kind,
			Cycles:    acc[k],
			Pct:       round6(float64(acc[k]) / float64(total) * 100),
		})
	}
	slices.SortStableFunc(segs, func(a, b PathSegment) int {
		return cmp.Or(cmp.Compare(b.Cycles, a.Cycles), strings.Compare(a.Component, b.Component), cmp.Compare(a.Kind, b.Kind))
	})
	return segs
}
