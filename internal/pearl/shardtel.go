package pearl

import "time"

// This file is the parallel engine's host-side introspection: wall-clock
// accounting of where a sharded run spends its time. Everything here
// observes the coordinator and its workers — never virtual time — so
// enabling it cannot perturb simulation results; the determinism pins in
// internal/machine hold with telemetry on and off. When neither the
// telemetry record nor the span hook is installed, the window loop takes no
// timestamps and allocates nothing.

// ShardTelemetry accumulates the parallel engine's execution profile over
// one Run: how long each shard computed versus waited at the barrier, how
// far and how densely the windows advanced, and how much cross-shard
// traffic the mailboxes carried. Read it after Run; the engine owns it
// during.
type ShardTelemetry struct {
	// Lookahead echoes the group's synchronisation horizon in cycles.
	Lookahead Time
	// Windows is the number of barrier windows executed.
	Windows uint64
	// Wall is the wall-clock time of the whole window loop, barriers
	// included.
	Wall time.Duration
	// Shards holds one load record per shard.
	Shards []ShardLoad
	// Advance is the distribution of virtual-time advance per window: the
	// gap between consecutive window starts, in cycles. Its floor is the
	// lookahead; values far above it mean the model is sparse in virtual
	// time and larger lookaheads would cost nothing.
	Advance LogHist
	// WindowEvents is the distribution of events executed per window,
	// summed over shards. Small values mean barrier overhead dominates.
	WindowEvents LogHist
	// Traffic counts cross-shard events drained from each mailbox,
	// indexed [src*Shards + dst].
	Traffic []uint64
}

// ShardLoad is one shard's share of the run.
type ShardLoad struct {
	// Busy is wall-clock time spent executing windows.
	Busy time.Duration
	// Wait is wall-clock barrier time: after finishing each window, how
	// long the shard idled until the slowest shard of that window finished.
	Wait time.Duration
	// Events is the number of kernel events the shard executed.
	Events uint64
	// Sent is the number of cross-shard events the shard produced.
	Sent uint64
}

// Efficiency returns the run's parallel efficiency: mean busy fraction
// across shards, in [0, 1]. A perfectly balanced run with no barrier
// overhead scores 1.
func (t *ShardTelemetry) Efficiency() float64 {
	if t == nil || len(t.Shards) == 0 {
		return 0
	}
	var busy, total time.Duration
	for i := range t.Shards {
		busy += t.Shards[i].Busy
		total += t.Shards[i].Busy + t.Shards[i].Wait
	}
	if total <= 0 {
		return 0
	}
	return float64(busy) / float64(total)
}

// LogHist is a log2-bucketed histogram of non-negative values: bucket i
// counts values whose bit length is i (zero lands in bucket 0), so bucket i
// covers [2^(i-1), 2^i). Fixed-size and allocation-free, which is all the
// engine needs for window statistics.
type LogHist struct {
	Count   uint64
	Sum     uint64
	MinV    uint64
	MaxV    uint64
	Buckets [65]uint64
}

// Observe records one value.
func (h *LogHist) Observe(v uint64) {
	if h.Count == 0 || v < h.MinV {
		h.MinV = v
	}
	if v > h.MaxV {
		h.MaxV = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bitLen(v)]++
}

// Mean returns the average observed value, or 0 with no observations.
func (h *LogHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// bitLen is bits.Len64 without the import: the number of bits needed to
// represent v.
func bitLen(v uint64) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// BucketRange returns the lowest and one past the highest non-empty bucket
// index, for rendering. Empty histograms return (0, 0).
func (h *LogHist) BucketRange() (lo, hi int) {
	lo = -1
	for i := range h.Buckets {
		if h.Buckets[i] == 0 {
			continue
		}
		if lo < 0 {
			lo = i
		}
		hi = i + 1
	}
	if lo < 0 {
		return 0, 0
	}
	return lo, hi
}

// BucketBounds returns bucket i's value interval [lo, hi): bucket 0 holds
// exactly 0, bucket i>0 holds [2^(i-1), 2^i).
func (h *LogHist) BucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// WindowSpan is one shard's wall-clock execution of one window, delivered
// through the hook installed with SetWindowSpanHook.
type WindowSpan struct {
	// Shard is the executing shard.
	Shard int
	// Window numbers the barrier window, starting at 0.
	Window uint64
	// Start and End bound the shard's wall-clock execution of the window.
	Start, End time.Time
	// VStart and VEnd bound the window in virtual time.
	VStart, VEnd Time
	// Events is how many kernel events the shard executed in the window.
	Events uint64
}

// EnableTelemetry attaches (and returns) a telemetry record to the group.
// Call before Run; the record accumulates across Run and is never reset.
func (g *ShardGroup) EnableTelemetry() *ShardTelemetry {
	if g.tel == nil {
		n := len(g.kernels)
		g.tel = &ShardTelemetry{
			Lookahead: g.lookahead,
			Shards:    make([]ShardLoad, n),
			Traffic:   make([]uint64, n*n),
		}
	}
	return g.tel
}

// SetWindowSpanHook installs fn to receive one wall-clock WindowSpan per
// shard per window, called from the coordinator goroutine after each
// barrier (never concurrently). A nil fn detaches the hook. Call before
// Run.
func (g *ShardGroup) SetWindowSpanHook(fn func(WindowSpan)) { g.spanHook = fn }

// observed reports whether the window loop must take wall-clock
// measurements. When false, Run behaves exactly as without this file.
func (g *ShardGroup) observed() bool { return g.tel != nil || g.spanHook != nil }
