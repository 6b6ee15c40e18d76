package pearl

import (
	"fmt"
	"sort"
)

// Reason is what a waiting component waited for, as a number its kernel
// hands out: ReasonHold, reasonAwait, one per resource for queueing on it
// (Resource.Reason), or one a model makes with NewReason or NewReasons for
// waits it reports itself. Observers add up block spans by Reason and ask
// for the text only when they write a report, so a span costs no string
// work.
type Reason int32

// The reasons every kernel has.
const (
	reasonNone  Reason = iota // not waiting
	ReasonHold                // "hold": a timed wait
	reasonAwait               // "await": waiting for a future
	numFixedReasons
)

// reasonRange is a run of made reasons, from first on, whose texts are verb,
// a space and the object of each: object itself for a single reason, the
// result of name for the i-th of a range.
type reasonRange struct {
	first  Reason
	verb   string
	object string
	name   func(i int) string
}

// NewReason makes a reason whose text is verb, a space and object ("acquire
// node0.bus.0"). It stores the two strings and builds nothing.
func (k *Kernel) NewReason(verb, object string) Reason {
	return k.newReasons(reasonRange{verb: verb, object: object}, 1)
}

// NewReasons makes n consecutive reasons, the i-th (counted from the one
// returned) with the text verb, a space and name(i). name is called only
// when a text is asked for, so a model with many like waits — a network's
// link channels — makes their reasons for nothing per channel.
func (k *Kernel) NewReasons(verb string, n int, name func(i int) string) Reason {
	return k.newReasons(reasonRange{verb: verb, name: name}, n)
}

func (k *Kernel) newReasons(r reasonRange, n int) Reason {
	r.first = k.nextReason
	if r.first == 0 {
		r.first = numFixedReasons
	}
	k.nextReason = r.first + Reason(n)
	k.reasons = append(k.reasons, r)
	return r.first
}

// ReasonText names r: "hold", "await", a made reason's "verb object", or ""
// when there is none. A nil kernel names only the fixed reasons.
func (k *Kernel) ReasonText(r Reason) string {
	switch r {
	case reasonNone:
		return ""
	case ReasonHold:
		return "hold"
	case reasonAwait:
		return "await"
	}
	if k == nil || r < numFixedReasons || r >= k.nextReason {
		return fmt.Sprintf("reason %d", r)
	}
	i := sort.Search(len(k.reasons), func(i int) bool { return k.reasons[i].first > r }) - 1
	rr := &k.reasons[i]
	if rr.name == nil {
		return rr.verb + " " + rr.object
	}
	return rr.verb + " " + rr.name(int(r-rr.first))
}
