// Package stats provides the measurement and analysis side of the workbench:
// counters, histograms and time series collected by the architecture models,
// plus the tabular / chart / CSV renderers that stand in for Mermaid's
// visualisation and analysis tool suite.
package stats

import "strings"

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds d to the counter.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Ratio returns c/total as a float, or 0 when total is 0.
func Ratio(c, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// Histogram accumulates int64 samples: their exact count, sum, min and max,
// so Mean is exact. The zero value is an empty histogram.
//
// Histogram is a comparable value type (no pointers or slices), so snapshots
// can be taken by plain assignment and compared with ==.
type Histogram struct {
	count uint64
	sum   int64
	min   int64
	max   int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
}

// Merge folds another histogram into h as if every sample observed by o had
// been observed by h: count, sum, min and max all end up exactly what a
// single histogram observing both sample streams would hold. A nil or empty
// o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 {
		*h = *o
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Min and Max return the extreme samples (0 if empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact mean of the samples (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Series is a sampled time series of float64 values at int64 (virtual time)
// positions, for run-time visualisation and post-mortem plotting.
type Series struct {
	Name string
	T    []int64
	V    []float64
}

// Append adds a sample at time t. A sample at the instant of the last one
// replaces it, so a series holds one value per instant: an end-of-run sample
// supersedes a periodic one that fired in the run's final cycle.
func (s *Series) Append(t int64, v float64) {
	if n := len(s.T); n > 0 && s.T[n-1] == t {
		s.V[n-1] = v
		return
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Summary computes the min/mean/max of the series values.
func (s *Series) Summary() (min, mean, max float64) {
	if len(s.V) == 0 {
		return 0, 0, 0
	}
	min, max = s.V[0], s.V[0]
	var sum float64
	for _, v := range s.V {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	return min, sum / float64(len(s.V)), max
}

// Metric is a named measurement in a report: a float value with a unit.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Set is an ordered collection of metrics for one component (e.g. one cache
// level, one link). Sets nest to form a full simulation report.
type Set struct {
	Name    string
	Metrics []Metric
	Subsets []*Set
}

// NewSet creates a named, empty metric set.
func NewSet(name string) *Set { return &Set{Name: name} }

// Put appends a metric, keeping insertion order. It does not look for the
// name among the set's metrics: a report names each metric of a set once
// (its paths name the history's columns and the Prometheus series), and a
// caller that changes a value sets it in place.
func (s *Set) Put(name string, value float64, unit string) {
	s.Metrics = append(s.Metrics, Metric{name, value, unit})
}

// PutInt appends an integer-valued metric.
func (s *Set) PutInt(name string, value int64, unit string) {
	s.Put(name, float64(value), unit)
}

// PutUint appends an unsigned-integer metric. Counters are uint64; routing
// them through PutInt would wrap values above 2^63 to negative numbers, so
// counter-valued metrics must use this instead.
func (s *Set) PutUint(name string, value uint64, unit string) {
	s.Put(name, float64(value), unit)
}

// Get returns the named metric value; ok is false if absent or s is nil.
func (s *Set) Get(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Sub returns (creating if needed) the named subset.
func (s *Set) Sub(name string) *Set {
	for _, sub := range s.Subsets {
		if sub.Name == name {
			return sub
		}
	}
	sub := NewSet(name)
	s.Subsets = append(s.Subsets, sub)
	return sub
}

// Lookup resolves a path like "node0/cache.L1D" through nested subsets,
// returning nil if any component is missing.
func (s *Set) Lookup(path ...string) *Set {
	cur := s
	for _, name := range path {
		var next *Set
		for _, sub := range cur.Subsets {
			if sub.Name == name {
				next = sub
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// Prefixed returns the first subset whose name begins with prefix, or nil:
// it finds a set named after its parameters, like "network torus(4x4)", by
// its kind.
func (s *Set) Prefixed(prefix string) *Set {
	for _, sub := range s.Subsets {
		if strings.HasPrefix(sub.Name, prefix) {
			return sub
		}
	}
	return nil
}
