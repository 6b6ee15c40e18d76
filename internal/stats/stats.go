// Package stats provides the measurement and analysis side of the workbench:
// counters, histograms and time series collected by the architecture models,
// plus the tabular / chart / CSV renderers that stand in for Mermaid's
// visualisation and analysis tool suite.
package stats

import (
	"fmt"
	"math"
	"sort"
)

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

// Histogram accumulates int64 samples in buckets. The zero value uses the
// default power-of-two layout: bucket i holds samples in [2^(i-1), 2^i) with
// bucket 0 holding zero and negative samples. NewHistogramWithEdges builds
// one with explicit bucket bounds instead. Either way the histogram also
// tracks exact count, sum, min and max, so Mean is exact while percentiles
// are bucket-resolution estimates.
//
// Histogram is a comparable value type (no pointers or slices), so snapshots
// can be taken by plain assignment and compared with ==.
type Histogram struct {
	buckets [65]uint64
	// edges[:nedges] are the explicit ascending bucket bounds; nedges == 0
	// means the default power-of-two layout.
	edges  [maxEdges]int64
	nedges int
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// maxEdges is the most explicit bucket edges a histogram can hold: k edges
// define k+1 buckets, and the bucket array holds 65.
const maxEdges = 64

// NewHistogramWithEdges returns a histogram with an explicit bucket layout:
// for edges e0 < e1 < ... < ek, bucket 0 holds samples below e0, bucket i
// holds samples in [e(i-1), e(i)), and the last bucket holds samples at or
// above ek. It errors on empty, non-ascending, or more than 64 edges.
// Histograms with different layouts refuse to Merge.
func NewHistogramWithEdges(edges ...int64) (*Histogram, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket edge")
	}
	if len(edges) > maxEdges {
		return nil, fmt.Errorf("stats: histogram supports at most %d edges, got %d", maxEdges, len(edges))
	}
	h := &Histogram{nedges: len(edges)}
	for i, e := range edges {
		if i > 0 && e <= edges[i-1] {
			return nil, fmt.Errorf("stats: histogram edges must be strictly ascending, got %d after %d", e, edges[i-1])
		}
		h.edges[i] = e
	}
	return h, nil
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
	h.buckets[h.bucketOf(v)]++
}

// bucketOf maps a sample to its bucket index under the histogram's layout.
func (h *Histogram) bucketOf(v int64) int {
	if h.nedges > 0 {
		// Explicit layout: the bucket index is the number of edges <= v.
		lo, hi := 0, h.nedges
		for lo < hi {
			mid := (lo + hi) / 2
			if h.edges[mid] <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	if v <= 0 {
		return 0
	}
	b := 1
	for x := v; x > 1; x >>= 1 {
		b++
	}
	if b > 64 {
		b = 64
	}
	return b
}

// sameLayout reports whether two histograms bucket their samples identically.
func (h *Histogram) sameLayout(o *Histogram) bool {
	return h.nedges == o.nedges && h.edges == o.edges
}

// Merge folds another histogram into h, bucket-wise, as if every sample
// observed by o had been observed by h: count, sum, min and max all end up
// exactly what a single histogram observing both sample streams would hold.
// A nil or empty o is a no-op; merging into a zero-value (unconfigured,
// empty) h copies o verbatim, layout included.
//
// Histograms with different bucket layouts do not merge: their buckets mean
// different ranges, and adding them cell-wise would silently corrupt every
// percentile estimate. Merge returns an error instead of mixing them.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if !h.sameLayout(o) {
		if h.count == 0 && h.nedges == 0 {
			// A blank aggregator adopts the source's layout wholesale.
			*h = *o
			return nil
		}
		return fmt.Errorf("stats: cannot merge histograms with different bucket layouts (%d vs %d explicit edges)",
			h.nedges, o.nedges)
	}
	if h.count == 0 {
		*h = *o
		return nil
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	return nil
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

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

// Percentile returns an upper-bound estimate of the p-quantile (p in [0,1])
// at bucket resolution: the upper edge of the bucket containing it. Every
// return path clamps to the observed [min, max], so an estimate can never
// fall outside the sample range (the first non-empty bucket's upper edge may
// lie below min when min sits high inside its bucket).
func (h *Histogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			return h.clamp(h.bucketHigh(i))
		}
	}
	return h.clamp(h.max)
}

// clamp bounds a bucket-resolution estimate to the observed sample range.
func (h *Histogram) clamp(v int64) int64 {
	if v > h.max {
		return h.max
	}
	if v < h.min {
		return h.min
	}
	return v
}

// bucketHigh returns the inclusive upper edge of bucket i under the
// histogram's layout; the open-ended last bucket reports the observed max.
func (h *Histogram) bucketHigh(i int) int64 {
	if h.nedges > 0 {
		if i < h.nedges {
			return h.edges[i] - 1
		}
		return h.max
	}
	if i == 0 {
		return 0
	}
	return int64(1)<<uint(i-1)*2 - 1
}

// bucketLow returns the inclusive lower edge of bucket i under the
// histogram's layout; the open-ended first explicit bucket reports the
// observed min.
func (h *Histogram) bucketLow(i int) int64 {
	if h.nedges > 0 {
		if i == 0 {
			return h.min
		}
		return h.edges[i-1]
	}
	if i == 0 {
		return 0
	}
	return int64(1) << uint(i-1)
}

// Buckets returns the non-empty buckets as (lowEdge, highEdge, count) rows,
// for rendering.
func (h *Histogram) Buckets() [][3]int64 {
	var rows [][3]int64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		rows = append(rows, [3]int64{h.bucketLow(i), h.bucketHigh(i), int64(n)})
	}
	return rows
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

// Put appends a metric (keeping insertion order; duplicate names are
// overwritten in place).
func (s *Set) Put(name string, value float64, unit string) {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			s.Metrics[i].Value = value
			s.Metrics[i].Unit = unit
			return
		}
	}
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

// Get returns the named metric value; ok is false if absent.
func (s *Set) Get(name string) (float64, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// MustGet returns the named metric value, panicking if absent: use in tests
// and experiment harnesses where the metric is known to exist.
func (s *Set) MustGet(name string) float64 {
	v, ok := s.Get(name)
	if !ok {
		panic(fmt.Sprintf("stats: set %q has no metric %q", s.Name, name))
	}
	return v
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

// SortSubsets orders subsets by name (natural string order); renderers call
// it for stable output when sets were built from map iteration.
func (s *Set) SortSubsets() {
	sort.Slice(s.Subsets, func(i, j int) bool { return s.Subsets[i].Name < s.Subsets[j].Name })
	for _, sub := range s.Subsets {
		sub.SortSubsets()
	}
}
