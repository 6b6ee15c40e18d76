// Package probe is the observability layer of the workbench: an
// always-compiled instrumentation surface that the architecture models feed
// while a simulation runs, standing in for the run-time half of Mermaid's
// visualisation and analysis tool suite (§2, Fig. 1).
//
// Its output is a Timeline of span events keyed by (component track,
// virtual time), exported in the Chrome trace-event format so a run opens
// directly in Perfetto or chrome://tracing. Metrics need no layer of their
// own: every counter lives in the run's report (machine.Result.Stats), and a
// live sampler hands that report tree to its consumers, whose Prometheus
// exposition WritePrometheus renders.
//
// The layer is cheap when disabled: every method is safe on a nil receiver,
// components hold a nil Timeline when no probe is attached, and the disabled
// path performs no allocation — the kernel's zero-alloc gates keep passing
// with probe-aware components compiled in.
package probe

// Config selects which probe outputs are active.
type Config struct {
	// Timeline enables span recording for the trace-event export.
	Timeline bool
}

// Probe carries a run's instrumentation: the timeline, when enabled. A nil
// *Probe is the disabled probe, whose Timeline is nil.
type Probe struct {
	tl *Timeline
}

// New creates a probe, allocating the timeline when cfg.Timeline is set.
func New(cfg Config) *Probe {
	p := &Probe{}
	if cfg.Timeline {
		p.tl = NewTimeline()
	}
	return p
}

// Timeline returns the timeline recorder, or nil when the probe is nil or
// built without timeline tracing. Components store the result and emit spans
// only when it is non-nil.
func (p *Probe) Timeline() *Timeline {
	if p == nil {
		return nil
	}
	return p.tl
}
