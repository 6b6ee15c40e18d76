package sim

import (
	"testing"

	"mermaid/internal/pearl"
	"mermaid/internal/probe"
)

func TestNewEnv(t *testing.T) {
	pb := probe.New(probe.Config{})
	env := NewEnv(7, pb)
	if env.Kernel == nil || env.RNG == nil || env.Probe != pb {
		t.Fatalf("NewEnv = %+v", env)
	}
	// The root stream is the seed's: identical to a directly seeded RNG.
	if got, want := env.RNG.Uint64(), pearl.NewRNG(7).Uint64(); got != want {
		t.Errorf("root draw = %d, want %d", got, want)
	}
}

func TestDeriveRNGMatchesRootDerive(t *testing.T) {
	// Components that used to derive from a hand-threaded root RNG must see
	// the same stream through the environment — that equivalence is what
	// kept existing runs byte-identical across the construction-API change.
	env := NewEnv(42, nil)
	want := pearl.NewRNG(42).Derive(3).Uint64()
	if got := env.DeriveRNG(3).Uint64(); got != want {
		t.Errorf("DeriveRNG(3) first draw = %d, want %d", got, want)
	}
	// Deriving consumes nothing from the root.
	env.DeriveRNG(9)
	if got, want := env.RNG.Uint64(), pearl.NewRNG(42).Uint64(); got != want {
		t.Errorf("root draw after derives = %d, want %d", got, want)
	}
}

func TestDeriveRNGNilRoot(t *testing.T) {
	var env Env
	if env.DeriveRNG(1) == nil {
		t.Fatal("nil root must fall back to a zero-seeded stream")
	}
	if got, want := env.DeriveRNG(1).Uint64(), pearl.NewRNG(0).Derive(1).Uint64(); got != want {
		t.Errorf("nil-root derive = %d, want %d", got, want)
	}
}

func TestWithRNGIsACopy(t *testing.T) {
	env := NewEnv(1, nil)
	orig := env.RNG
	other := env.WithRNG(pearl.NewRNG(2))
	if env.RNG != orig {
		t.Error("WithRNG mutated the receiver")
	}
	if other.RNG == orig || other.Kernel != env.Kernel {
		t.Errorf("WithRNG copy = %+v", other)
	}
}

func TestNilProbeAccessors(t *testing.T) {
	var env Env
	if env.Timeline() != nil {
		t.Error("nil probe produced a timeline")
	}
}
