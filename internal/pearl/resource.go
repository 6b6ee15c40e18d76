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
	reason   Reason // block reason of a waiter
	capacity int
	inUse    int
	waiters  fifo[*Chain]

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
	return &Resource{k: k, name: name, reason: k.NewReason("acquire", name), capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

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

// WaitCycles returns the total time spent queued for the resource, summed
// over all completed acquisitions.
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
// is when Step{Acquire} ends without a wait, and reports whether it did.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.account()
		r.inUse++
		r.acquires++
		return true
	}
	return false
}

// Release returns one unit of the resource, granting it to the head waiter if
// any. May be called from any context.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("pearl: release of idle resource " + r.name)
	}
	r.account()
	r.inUse--
	if r.waiters.len() > 0 {
		// Transfer the unit directly to the waiter so no newcomer can steal.
		r.inUse++
		r.waiters.pop().wake()
	}
}
