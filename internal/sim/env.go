// Package sim defines the shared construction environment for the
// workbench's architecture models. Every component constructor used to take
// its own positional tail of cross-cutting dependencies (kernel, RNG stream,
// probe); Env collapses them into one value that is threaded unchanged
// through an assembly:
//
//	env := sim.NewEnv(seed, pb)
//	net, err := network.New(env, netCfg)
//	nd, err := node.New(env, node.Params{ID: 0, Cfg: nodeCfg, NIF: net.Node(0)})
//
// Env is a plain value: copies are cheap and customised copies (a different
// RNG stream for a subcomponent, say) never affect the caller's Env.
package sim

import (
	"mermaid/internal/analysis"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
)

// Env is the construction environment shared by every component of one
// machine model.
type Env struct {
	// Kernel is the discrete-event kernel the model is built on. It must be
	// non-nil.
	Kernel *pearl.Kernel
	// RNG is the model's root random stream; components derive their own
	// private substreams from it (see DeriveRNG) so that adding a component
	// never perturbs the draws seen by another. A nil RNG is treated as a
	// zero-seeded root stream.
	RNG *pearl.RNG
	// Probe is the observability layer, or nil for an uninstrumented build.
	// All probe methods are nil-safe, so components use it unconditionally.
	Probe *probe.Probe
	// Collect is the bottleneck-analysis collector, or nil when the analyzer
	// is off. All collector methods are nil-safe, so components register
	// their busy/wait accounting unconditionally.
	Collect *analysis.Collector
}

// NewEnv builds a fresh environment: a new kernel, a root RNG seeded with
// seed, and the given (possibly nil) probe.
func NewEnv(seed uint64, pb *probe.Probe) Env {
	return Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(seed), Probe: pb}
}

// WithRNG returns a copy of the environment using the given random stream.
func (e Env) WithRNG(r *pearl.RNG) Env {
	e.RNG = r
	return e
}

// DeriveRNG returns a private random substream for the given component
// stream id, derived from the environment's root stream without consuming
// draws from it. A nil root is treated as a zero-seeded stream.
func (e Env) DeriveRNG(stream uint64) *pearl.RNG {
	root := e.RNG
	if root == nil {
		root = pearl.NewRNG(0)
	}
	return root.Derive(stream)
}

// WithCollector returns a copy of the environment carrying the given
// (possibly nil) analysis collector.
func (e Env) WithCollector(c *analysis.Collector) Env {
	e.Collect = c
	return e
}

// Timeline returns the probe's timeline recorder, or nil.
func (e Env) Timeline() *probe.Timeline { return e.Probe.Timeline() }
