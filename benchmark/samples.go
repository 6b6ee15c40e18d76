package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is the guide's rule for reporting a percentile: at least
// this many samples must lie beyond it, or the figure is a statement about
// a handful of outliers.
const tailMinBeyond = 10

// percentile returns the p-th percentile (0 < p <= 100) of vs by the
// nearest-rank method on a sorted copy; NaN for an empty sample.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile with the midpoint rule for even counts, so
// a bimodal two-sample set does not report one of its modes.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileAllowed reports whether the p-th percentile of n samples has at
// least tailMinBeyond samples beyond it.
func percentileAllowed(n int, p float64) bool {
	beyond := n - int(math.Ceil(p/100*float64(n)))
	return beyond >= tailMinBeyond
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance driver computes; both are NaN below two samples.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
