package pearl

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestRNGDeriveIndependent(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("derived streams collide on first draw")
	}
	// Deriving consumed nothing from the parent.
	p2 := NewRNG(7)
	if parent.Uint64() != p2.Uint64() {
		t.Fatal("Derive consumed parent state")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("only %d of 7 values seen", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	var sum, sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal mean=%v var=%v, want ~0/~1", mean, variance)
	}
}

// Property: Perm always returns a permutation of [0, n).
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8 % 64)
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn stays in range for arbitrary seeds and n.
func TestIntnProperty(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
