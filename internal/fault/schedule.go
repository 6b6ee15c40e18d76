// Package fault is the deterministic fault-injection subsystem of the
// workbench: a declarative, virtual-time schedule of interconnect failures
// (link down/up windows, node crash/restart windows, per-link packet noise)
// and the runtime Injector that applies it to a running machine model.
//
// Every state change is an ordinary kernel event and every probabilistic
// draw comes from a private RNG stream derived from the run seed, so a
// faulty run is exactly as reproducible as a healthy one: byte-identical
// reports and timelines at any farm worker count. With an empty schedule no
// injector is built at all and the simulation is bit-identical to a build
// without the subsystem.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"mermaid/internal/pearl"
)

// Window is a half-open virtual-time interval [From, To) during which a
// fault is active. To == 0 means "until the end of the run".
type Window struct {
	From pearl.Time `json:"from"`
	To   pearl.Time `json:"to,omitempty"`
}

// validate checks the window bounds.
func (w Window) validate() error {
	if w.From < 0 || w.To < 0 {
		return fmt.Errorf("fault: negative window bound [%d, %d)", w.From, w.To)
	}
	if w.To != 0 && w.To <= w.From {
		return fmt.Errorf("fault: empty window [%d, %d)", w.From, w.To)
	}
	return nil
}

// clip returns the window intersected with [0, end), reporting ok=false for
// an empty intersection.
func (w Window) clip(end pearl.Time) (from, to pearl.Time, ok bool) {
	from, to = w.From, w.To
	if to == 0 || to > end {
		to = end
	}
	return from, to, from < to
}

// LinkFault takes the physical link between neighbouring nodes A and B down
// for the window: both directions fail at once, as a cable fault would.
type LinkFault struct {
	A int `json:"a"`
	B int `json:"b"`
	Window
}

// NodeFault crashes node Node for the window. The model is fail-stop at the
// network interface: while down the node is unreachable (packets to or
// through it are lost) but its local computation is not interrupted — the
// workbench models communication degradation, not state recovery.
type NodeFault struct {
	Node int `json:"node"`
	Window
}

// LinkNoise attaches packet-level noise to the physical link between A and
// B (both directions): each hop across the link independently drops the
// packet with probability Drop or corrupts it with probability Corrupt
// (detected at the destination and discarded there). A == -1 and B == -1
// apply the noise to every link.
type LinkNoise struct {
	A       int     `json:"a"`
	B       int     `json:"b"`
	Drop    float64 `json:"drop,omitempty"`
	Corrupt float64 `json:"corrupt,omitempty"`
}

// Retrans parameterises the network-level retransmission that recovers lost
// packets: a lost packet is retransmitted from its source after a timeout
// that backs off exponentially per attempt.
type Retrans struct {
	// Timeout is the delay before the first retransmission, in cycles.
	// Zero means the default (500).
	Timeout pearl.Time `json:"timeout,omitempty"`
	// Backoff is the multiplicative factor applied to the timeout on every
	// further attempt. Zero means the default (2).
	Backoff int `json:"backoff,omitempty"`
	// MaxRetries bounds the attempts per packet; past it the packet (and
	// its message) is abandoned and counted in net.lost. Zero means the
	// default (16).
	MaxRetries int `json:"maxRetries,omitempty"`
}

// Retrans defaults and the backoff exponent cap (keeps the delay finite and
// overflow-free even at the retry bound).
const (
	defaultTimeout    = pearl.Time(500)
	defaultBackoff    = 2
	defaultMaxRetries = 16
	maxBackoffShift   = 20
)

// WithDefaults returns the configuration with zero fields replaced by the
// documented defaults.
func (r Retrans) WithDefaults() Retrans {
	if r.Timeout == 0 {
		r.Timeout = defaultTimeout
	}
	if r.Backoff == 0 {
		r.Backoff = defaultBackoff
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = defaultMaxRetries
	}
	return r
}

// Delay returns the retransmission delay before attempt `attempt` (1-based):
// Timeout * Backoff^(attempt-1), with the exponent capped so the delay stays
// finite.
func (r Retrans) Delay(attempt int) pearl.Time {
	d := r.Timeout
	if d <= 0 {
		d = 1
	}
	steps := attempt - 1
	if steps < 0 {
		steps = 0
	}
	if steps > maxBackoffShift {
		steps = maxBackoffShift
	}
	for i := 0; i < steps; i++ {
		d *= pearl.Time(r.Backoff)
	}
	return d
}

func (r Retrans) validate() error {
	if r.Timeout < 0 {
		return fmt.Errorf("fault: negative retransmission timeout %d", r.Timeout)
	}
	if r.Backoff < 0 {
		return fmt.Errorf("fault: retransmission backoff %d must be >= 1", r.Backoff)
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("fault: negative retry bound %d", r.MaxRetries)
	}
	return nil
}

// Schedule is the declarative fault plan of one run, normally loaded from a
// JSON file (-faults) or the machine configuration's v1 "Faults" block.
type Schedule struct {
	Links   []LinkFault `json:"links,omitempty"`
	Nodes   []NodeFault `json:"nodes,omitempty"`
	Noise   []LinkNoise `json:"noise,omitempty"`
	Retrans Retrans     `json:"retrans,omitempty"`
}

// Empty reports whether the schedule injects no faults at all (retransmission
// parameters alone are inert: nothing is ever lost without faults).
func (s *Schedule) Empty() bool {
	return s == nil || len(s.Links) == 0 && len(s.Nodes) == 0 && len(s.Noise) == 0
}

// Validate checks the schedule against a machine of `nodes` nodes. Link
// endpoint adjacency is checked later, against the concrete topology, when
// the Injector is built.
func (s *Schedule) Validate(nodes int) error {
	if s == nil {
		return nil
	}
	checkNode := func(n int) error {
		if n < 0 || n >= nodes {
			return fmt.Errorf("fault: node %d out of range [0, %d)", n, nodes)
		}
		return nil
	}
	for _, lf := range s.Links {
		if err := checkNode(lf.A); err != nil {
			return err
		}
		if err := checkNode(lf.B); err != nil {
			return err
		}
		if lf.A == lf.B {
			return fmt.Errorf("fault: link fault with identical endpoints %d", lf.A)
		}
		if err := lf.Window.validate(); err != nil {
			return err
		}
	}
	for _, nf := range s.Nodes {
		if err := checkNode(nf.Node); err != nil {
			return err
		}
		if err := nf.Window.validate(); err != nil {
			return err
		}
	}
	for _, ln := range s.Noise {
		wild := ln.A == -1 && ln.B == -1
		if !wild {
			if err := checkNode(ln.A); err != nil {
				return err
			}
			if err := checkNode(ln.B); err != nil {
				return err
			}
			if ln.A == ln.B {
				return fmt.Errorf("fault: noise with identical endpoints %d", ln.A)
			}
		}
		if ln.Drop < 0 || ln.Corrupt < 0 || ln.Drop+ln.Corrupt > 1 {
			return fmt.Errorf("fault: noise probabilities drop=%g corrupt=%g outside [0,1]", ln.Drop, ln.Corrupt)
		}
	}
	return s.Retrans.validate()
}

// ParseSchedule decodes a fault schedule from JSON, rejecting unknown fields
// and trailing garbage like machine.ParseConfig does.
func ParseSchedule(data []byte) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: parsing schedule: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("fault: trailing data after schedule JSON")
	}
	s.Normalize()
	return &s, nil
}

// Normalize reads empty fault lists as absent. They marshal away
// (omitempty), so a decoded schedule — on its own or inside a machine
// configuration — must be normalised to survive a marshal and re-parse. A nil
// schedule is left alone.
func (s *Schedule) Normalize() {
	if s == nil {
		return
	}
	s.Links = nilIfEmpty(s.Links)
	s.Nodes = nilIfEmpty(s.Nodes)
	s.Noise = nilIfEmpty(s.Noise)
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
