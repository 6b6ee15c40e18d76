package pearl

import "fmt"

// Resource is a counted resource with strict FIFO granting, used to model
// shared hardware such as buses, memory ports and network links. Capacity 1
// gives mutual exclusion with queueing and arbitration; the wait queue order
// is the arbitration order (first-come, first-served, deterministic).
//
// Resources track an occupancy integral so models can report utilisation.
type Resource struct {
	k        *Kernel
	name     string
	reason   string // block reason of a waiter, built once
	capacity int
	inUse    int
	waiters  fifo[*Process]

	lastChange Time
	busyCycles Time // integral of inUse over time
	acquires   uint64
	waitCycles Time // total time spent queued, over all acquires
}

// NewResource creates a resource with the given capacity (units that can be
// held simultaneously). Capacity must be positive.
func (k *Kernel) NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("pearl: resource %q: capacity %d", name, capacity))
	}
	return &Resource{k: k, name: name, reason: "acquire " + name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// Acquires returns the number of successful acquisitions so far.
func (r *Resource) Acquires() uint64 { return r.acquires }

// Capacity returns the number of units the resource can grant at once.
func (r *Resource) Capacity() int { return r.capacity }

// BusyCycles returns the occupancy integral up to the current virtual time:
// the sum over time of units in use. Divided by capacity times elapsed time
// it gives Utilization; kept raw it is the uniform busy measure the analysis
// layer aggregates across every shared resource.
func (r *Resource) BusyCycles() Time {
	r.account()
	return r.busyCycles
}

// WaitCycles returns the total time processes have spent queued for the
// resource, summed over all completed acquisitions.
func (r *Resource) WaitCycles() Time { return r.waitCycles }

// account folds the elapsed occupancy into the busy integral.
func (r *Resource) account() {
	now := r.k.now
	r.busyCycles += Time(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Utilization returns the fraction of capacity-time used up to the current
// virtual time. Zero if no time has passed.
func (r *Resource) Utilization() float64 {
	r.account()
	if r.k.now == 0 {
		return 0
	}
	return float64(r.busyCycles) / (float64(r.capacity) * float64(r.k.now))
}

// AvgWait returns the mean queueing delay per acquisition, in cycles.
func (r *Resource) AvgWait() float64 {
	if r.acquires == 0 {
		return 0
	}
	return float64(r.waitCycles) / float64(r.acquires)
}

// TryAcquire takes a unit if one is free and nobody is queued for one, which
// is when Acquire returns without blocking, and reports whether it did.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.account()
		r.inUse++
		r.acquires++
		return true
	}
	return false
}

// request takes a unit for p if one is free and nobody is queued; otherwise
// it queues p and reports false.
func (r *Resource) request(p *Process) bool {
	if r.TryAcquire() {
		return true
	}
	p.granted, p.queuedAt = false, r.k.now
	r.waiters.push(p)
	return false
}

// grant books the acquisition of a queued p that Release has given its unit.
func (r *Resource) grant(p *Process) {
	r.waitCycles += r.k.now - p.queuedAt
	r.acquires++
}

// Acquire blocks until a unit of the resource is granted to the process.
// Grants are strictly FIFO: a later arrival can never overtake an earlier
// waiter.
func (p *Process) Acquire(r *Resource) {
	if r.request(p) {
		return
	}
	for !p.granted {
		p.park(r.reason)
	}
	r.grant(p)
}

// Release returns one unit of the resource, granting it to the head waiter if
// any. May be called from any context.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("pearl: release of idle resource " + r.name)
	}
	r.account()
	r.inUse--
	for r.waiters.len() > 0 {
		w := r.waiters.pop()
		if w.terminated {
			continue
		}
		// Transfer the unit directly to the waiter so no newcomer can steal.
		r.inUse++
		w.granted = true
		w.unpark()
		return
	}
}

// Use acquires the resource, holds it for d cycles, and releases it — the
// common "occupy the bus for the transfer time" pattern.
func (p *Process) Use(r *Resource, d Time) {
	p.Acquire(r)
	p.Hold(d)
	r.Release()
}
