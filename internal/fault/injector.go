package fault

import (
	"fmt"
	"slices"
	"sort"

	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
	"mermaid/internal/topology"
)

// rngStream is the Derive stream id of the injector's private RNG, so fault
// draws never perturb any other component's randomness.
const rngStream = 0xFA171

// Fate is the outcome of one packet hop under the active noise model.
type Fate uint8

// Hop outcomes.
const (
	// OK: the packet crossed the link intact.
	OK Fate = iota
	// dropped: the packet was lost in transit; the source learns of it only
	// through its retransmission timeout.
	dropped
	// corrupted: the packet arrived damaged; the receiver detects the bad
	// checksum and discards it, so recovery timing equals a drop's.
	corrupted
)

// transition is one scheduled fault state change: at time at, delta (+1
// down, -1 up) on the down-window nesting count of the directed links a and
// b of one physical link, or of node a.
type transition struct {
	at    pearl.Time
	link  bool
	a, b  int
	delta int
}

// Injector applies a Schedule to one machine's interconnect. It is built by
// the machine assembly only when the schedule is non-empty: a nil *Injector
// is the disabled subsystem, and every query on it is a nil-safe no-op that
// performs no allocation — the fault-disabled hot path stays exactly as
// fast, and as allocation-free, as a build without faults.
type Injector struct {
	k    *pearl.Kernel
	topo topology.Topology
	rng  *pearl.RNG

	sched Schedule // validated: its Retrans defaults filled

	deg      int
	linkDown []int // [node*deg+port] down-window nesting count
	nodeDown []int // [node] down-window nesting count

	drop    []float64 // [node*deg+port] per-hop drop probability
	corrupt []float64 // [node*deg+port] per-hop corruption probability
	noisy   bool

	// pending is the time-sorted transition list; next indexes the first
	// not-yet-applied entry. Only one kernel event is outstanding at a time,
	// scheduled as a daemon event, so a schedule that outlives the workload
	// never keeps the run alive.
	pending []transition
	next    int

	onChange []func()

	drops       stats.Counter
	corruptions stats.Counter

	tl         *probe.Timeline
	linkTracks []probe.Track // parallel to sched.Links
	nodeTracks []probe.Track // parallel to sched.Nodes
}

// NewInjector builds the injector for the given topology and schedule,
// drawing its private RNG stream from rng (the machine's root stream) and
// instrumenting through pb. The schedule must be non-empty and must pass
// Validate for the topology's node count; link faults and noise must name
// adjacent node pairs.
func NewInjector(k *pearl.Kernel, topo topology.Topology, sched Schedule, rng *pearl.RNG, pb *probe.Probe) (*Injector, error) {
	if sched.Empty() {
		return nil, fmt.Errorf("fault: empty schedule needs no injector")
	}
	if err := sched.Validate(topo.Nodes()); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = pearl.NewRNG(0)
	}
	inj := &Injector{
		k:        k,
		topo:     topo,
		rng:      rng.Derive(rngStream),
		sched:    sched,
		deg:      topo.Degree(),
		linkDown: make([]int, topo.Nodes()*topo.Degree()),
		nodeDown: make([]int, topo.Nodes()),
		tl:       pb.Timeline(),
	}
	if err := inj.applyNoise(); err != nil {
		return nil, err
	}
	if err := inj.buildTransitions(); err != nil {
		return nil, err
	}
	inj.makeTracks()
	if len(inj.pending) > 0 {
		inj.scheduleNext()
	}
	return inj, nil
}

// ports resolves the directed link indices of the physical link a—b, or an
// error if the nodes are not neighbours.
func (inj *Injector) ports(a, b int) (ab, ba int, err error) {
	ab, ba = -1, -1
	for port := 0; port < inj.deg; port++ {
		if inj.topo.Neighbor(a, port) == b {
			ab = a*inj.deg + port
		}
		if inj.topo.Neighbor(b, port) == a {
			ba = b*inj.deg + port
		}
	}
	if ab < 0 || ba < 0 {
		return 0, 0, fmt.Errorf("fault: nodes %d and %d are not neighbours in %s", a, b, inj.topo.Name())
	}
	return ab, ba, nil
}

func (inj *Injector) applyNoise() error {
	for _, ln := range inj.sched.Noise {
		if ln.Drop == 0 && ln.Corrupt == 0 {
			continue
		}
		if inj.drop == nil {
			inj.drop = make([]float64, len(inj.linkDown))
			inj.corrupt = make([]float64, len(inj.linkDown))
		}
		inj.noisy = true
		if ln.A == -1 && ln.B == -1 {
			for node := 0; node < inj.topo.Nodes(); node++ {
				for port := 0; port < inj.deg; port++ {
					if inj.topo.Neighbor(node, port) < 0 {
						continue
					}
					idx := node*inj.deg + port
					inj.drop[idx] += ln.Drop
					inj.corrupt[idx] += ln.Corrupt
				}
			}
			continue
		}
		ab, ba, err := inj.ports(ln.A, ln.B)
		if err != nil {
			return err
		}
		inj.drop[ab] += ln.Drop
		inj.corrupt[ab] += ln.Corrupt
		inj.drop[ba] += ln.Drop
		inj.corrupt[ba] += ln.Corrupt
	}
	if inj.noisy {
		for i := range inj.drop {
			if inj.drop[i]+inj.corrupt[i] > 1 {
				return fmt.Errorf("fault: accumulated noise on link %d exceeds probability 1", i)
			}
		}
	}
	return nil
}

func (inj *Injector) buildTransitions() error {
	add := func(w Window, tr transition) {
		tr.at, tr.delta = w.From, 1
		inj.pending = append(inj.pending, tr)
		if w.To != 0 {
			tr.at, tr.delta = w.To, -1
			inj.pending = append(inj.pending, tr)
		}
	}
	for _, lf := range inj.sched.Links {
		ab, ba, err := inj.ports(lf.A, lf.B)
		if err != nil {
			return err
		}
		add(lf.Window, transition{link: true, a: ab, b: ba})
	}
	for _, nf := range inj.sched.Nodes {
		add(nf.Window, transition{a: nf.Node})
	}
	// Stable by time: same-time transitions keep schedule order, so the
	// state after each instant is deterministic.
	sort.SliceStable(inj.pending, func(i, j int) bool { return inj.pending[i].at < inj.pending[j].at })
	return nil
}

// scheduleNext queues the kernel event for the next pending transition.
// Fault state changes are ordinary kernel events: they interleave with the
// workload's events in strict (time, sequence) order, which is what keeps
// faulty runs byte-identical at any farm worker count. They are daemon
// events, though: once nothing but the fault plan remains scheduled, the
// rest of the plan is unobservable (there is nothing left to route) and the
// run ends without it.
func (inj *Injector) scheduleNext() {
	inj.k.AtDaemon(inj.pending[inj.next].at, inj.fire)
}

// fire applies every transition scheduled for the current instant, notifies
// the topology-change subscribers once, and re-arms for the next instant.
func (inj *Injector) fire() {
	now := inj.k.Now()
	for ; inj.next < len(inj.pending) && inj.pending[inj.next].at == now; inj.next++ {
		if tr := inj.pending[inj.next]; tr.link {
			inj.linkDown[tr.a] += tr.delta
			inj.linkDown[tr.b] += tr.delta
		} else {
			inj.nodeDown[tr.a] += tr.delta
		}
	}
	for _, fn := range inj.onChange {
		fn()
	}
	if inj.next < len(inj.pending) {
		inj.scheduleNext()
	}
}

// OnChange registers a callback invoked (in event context) after every
// instant at which the link/node up-down state changed — the signal routers
// re-path on. It is also invoked once immediately, covering faults active
// from time zero.
func (inj *Injector) OnChange(fn func()) {
	if inj == nil {
		return
	}
	inj.onChange = append(inj.onChange, fn)
	fn()
}

// LinkDown reports whether the directed link out of `node` via `port` is
// currently failed — by a link fault on the physical link or a node fault on
// either endpoint. Nil-safe and allocation-free: the fault-disabled hot path
// is one pointer test.
func (inj *Injector) LinkDown(node, port int) bool {
	if inj == nil {
		return false
	}
	if inj.linkDown[node*inj.deg+port] > 0 || inj.nodeDown[node] > 0 {
		return true
	}
	nb := inj.topo.Neighbor(node, port)
	return nb >= 0 && inj.nodeDown[nb] > 0
}

// NodeDown reports whether the node is currently crashed.
func (inj *Injector) NodeDown(node int) bool {
	return inj != nil && inj.nodeDown[node] > 0
}

// Alive is the liveness predicate routers re-path against: the directed link
// out of `node` via `port` is usable right now.
func (inj *Injector) Alive(node, port int) bool { return !inj.LinkDown(node, port) }

// HopFate draws the outcome of one packet hop out of `node` via `port`
// under the configured noise model. Without noise it returns OK without
// consuming a draw, so a noise-free schedule stays draw-for-draw identical
// to one with no noise block at all.
func (inj *Injector) HopFate(node, port int) Fate {
	if inj == nil || !inj.noisy {
		return OK
	}
	idx := node*inj.deg + port
	d, c := inj.drop[idx], inj.corrupt[idx]
	if d == 0 && c == 0 {
		return OK
	}
	u := inj.rng.Float64()
	switch {
	case u < d:
		inj.drops.Inc()
		return dropped
	case u < d+c:
		inj.corruptions.Inc()
		return corrupted
	}
	return OK
}

// CountDrop records a packet lost to a down link or node (window faults, as
// opposed to the probabilistic noise that HopFate counts itself).
func (inj *Injector) CountDrop() {
	if inj != nil {
		inj.drops.Inc()
	}
}

// Retrans returns the validated retransmission parameters; a nil injector
// returns the defaults.
func (inj *Injector) Retrans() Retrans {
	if inj == nil {
		return defaultRetrans
	}
	return inj.sched.Retrans
}

// makeTracks creates the timeline fault tracks — one per faulted link pair
// and one per crashed node, each once (Timeline.Track) — under the "fault"
// group. Tracks are only created when a timeline is attached and only for
// components the schedule actually touches.
func (inj *Injector) makeTracks() {
	if inj.tl == nil {
		return
	}
	for _, lf := range inj.sched.Links {
		name := fmt.Sprintf("fault.link%d-%d", min(lf.A, lf.B), max(lf.A, lf.B))
		inj.linkTracks = append(inj.linkTracks, inj.tl.Track(name))
	}
	for _, nf := range inj.sched.Nodes {
		inj.nodeTracks = append(inj.nodeTracks, inj.tl.Track(fmt.Sprintf("fault.node%d", nf.Node)))
	}
}

// crashable returns the nodes the schedule can crash, each once, in the
// order the schedule first names them.
func (inj *Injector) crashable() []int {
	var nodes []int
	for _, nf := range inj.sched.Nodes {
		if !slices.Contains(nodes, nf.Node) {
			nodes = append(nodes, nf.Node)
		}
	}
	return nodes
}

// Stats reports the degraded-mode accounting of a run that ended at end, as
// the report's "faults" set: the packets lost in transit (drops) and
// damaged (corruptions), and the downtime of every node the schedule can
// crash — the union of its down windows clipped to [0, end), read off the
// sorted transitions in one pass.
func (inj *Injector) Stats(end pearl.Time) *stats.Set {
	s := stats.NewSet("faults")
	s.PutUint("drops", inj.drops.Value(), "")
	s.PutUint("corruptions", inj.corruptions.Value(), "")
	nodes := inj.crashable()
	depth := make([]int, len(nodes))
	down := make([]pearl.Time, len(nodes)) // less the start of an open window
	for _, tr := range inj.pending {
		if tr.at >= end {
			break
		}
		if tr.link {
			continue
		}
		i := slices.Index(nodes, tr.a)
		if depth[i] == 0 {
			down[i] -= tr.at
		}
		if depth[i] += tr.delta; depth[i] == 0 {
			down[i] += tr.at
		}
	}
	for i, node := range nodes {
		if depth[i] > 0 {
			down[i] += end
		}
		s.PutInt(fmt.Sprintf("node%d downtime", node), int64(down[i]), "cyc")
	}
	return s
}

// Finish closes the injector's timeline accounting at the end of a run of
// `end` cycles: every scheduled down window is emitted as one "down" span on
// its fault track, clipped to the run. A machine runs once, and calls it
// once.
func (inj *Injector) Finish(end pearl.Time) {
	if inj == nil || inj.tl == nil {
		return
	}
	for i, lf := range inj.sched.Links {
		if from, to, ok := lf.clip(end); ok {
			inj.tl.Span(inj.linkTracks[i], "down", from, to)
		}
	}
	for i, nf := range inj.sched.Nodes {
		if from, to, ok := nf.clip(end); ok {
			inj.tl.Span(inj.nodeTracks[i], "down", from, to)
		}
	}
}
