package stats

import (
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 4) != 0.25 {
		t.Fatal("Ratio(1,4) != 0.25")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.sum != 20 || h.Min() != 1 || h.Max() != 10 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.sum, h.Min(), h.Max())
	}
	if h.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should be all zeros")
	}
}

func TestHistogramNegativeAndZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(0)
	h.Observe(7)
	if h.Min() != -5 || h.Max() != 7 || h.Count() != 3 {
		t.Fatal("negative/zero handling broken")
	}
}

// Property: mean is always within [min, max].
func TestHistogramProperties(t *testing.T) {
	f := func(samples []int16) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Observe(int64(s))
		}
		m := h.Mean()
		return m >= float64(h.Min())-1e-9 && m <= float64(h.Max())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(0, 1)
	s.Append(10, 3)
	s.Append(20, 2)
	min, mean, max := s.Summary()
	if min != 1 || max != 3 || mean != 2 {
		t.Fatalf("summary = %v/%v/%v", min, mean, max)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSetPutGet(t *testing.T) {
	s := NewSet("cache")
	s.Put("hits", 10, "")
	s.PutInt("misses", 3, "")
	s.Metrics[0].Value = 12 // a value changes in place
	if v, ok := s.Get("hits"); !ok || v != 12 {
		t.Fatalf("hits = %v, %v", v, ok)
	}
	if len(s.Metrics) != 2 || s.Metrics[0].Name != "hits" || s.Metrics[1].Name != "misses" {
		t.Fatalf("metrics = %v, want hits then misses", s.Metrics)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("absent metric found")
	}
}

func TestSetNesting(t *testing.T) {
	root := NewSet("machine")
	root.Sub("node0").Sub("cache.L1D").Put("hit ratio", 0.95, "")
	if root.Lookup("node0", "cache.L1D") == nil {
		t.Fatal("lookup failed")
	}
	if root.Lookup("node0", "nope") != nil {
		t.Fatal("lookup of missing subset should be nil")
	}
	if root.Prefixed("node") != root.Subsets[0] || root.Prefixed("cache") != nil {
		t.Fatal("Prefixed searches the direct subsets by name prefix")
	}
	// Sub is idempotent.
	if root.Sub("node0") != root.Subsets[0] {
		t.Fatal("Sub created duplicate")
	}
}

// Property: merging is exactly equivalent to observing both sample streams
// on one histogram — count, sum, min, max, and therefore mean all coincide.
func TestHistogramMergeProperty(t *testing.T) {
	f := func(a, b []int16) bool {
		var ha, hb, all Histogram
		for _, v := range a {
			ha.Observe(int64(v))
			all.Observe(int64(v))
		}
		for _, v := range b {
			hb.Observe(int64(v))
			all.Observe(int64(v))
		}
		ha.Merge(&hb)
		return ha == all // Histogram is comparable: count, sum, min, max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeEdgeCases(t *testing.T) {
	var h Histogram
	h.Observe(3)
	before := h
	h.Merge(nil)
	if h != before {
		t.Error("Merge(nil) changed the histogram")
	}
	var empty Histogram
	h.Merge(&empty)
	if h != before {
		t.Error("merging an empty histogram changed the receiver")
	}
	// Merging into an empty histogram copies the source verbatim.
	var dst Histogram
	dst.Merge(&h)
	if dst != h {
		t.Error("merge into empty is not a copy")
	}
	// The source must be left untouched.
	var src Histogram
	src.Observe(-2)
	srcBefore := src
	dst.Merge(&src)
	if src != srcBefore {
		t.Error("Merge mutated its argument")
	}
	if dst.Min() != -2 || dst.Max() != 3 || dst.Count() != 2 {
		t.Errorf("merged min/max/count = %d/%d/%d, want -2/3/2", dst.Min(), dst.Max(), dst.Count())
	}
}
