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
// that backs off exponentially per attempt. Validate writes the default in
// place of every zero field.
type Retrans struct {
	// Timeout is the delay before the first retransmission, in cycles;
	// zero means 500.
	Timeout pearl.Time `json:"timeout,omitempty"`
	// Backoff is the multiplicative factor applied to the timeout on every
	// further attempt; zero means 2.
	Backoff int `json:"backoff,omitempty"`
	// MaxRetries bounds the attempts per packet; past it the packet (and
	// its message) is abandoned and counted in net.lost. Zero means 16.
	MaxRetries int `json:"maxRetries,omitempty"`
}

// defaultRetrans holds the defaults Validate writes in place of zero fields.
var defaultRetrans = Retrans{Timeout: 500, Backoff: 2, MaxRetries: 16}

const (
	// maxBackoffShift caps the backoff exponent: attempts past it wait as
	// long as attempt maxBackoffShift+1.
	maxBackoffShift = 20
	// maxRetransDelay bounds the longest delay a validated Retrans asks for,
	// that of attempt MaxRetries. A run's clock stays below 2^62 cycles (146
	// years at 1 GHz), so the clock plus any such delay stays below
	// pearl.Forever.
	maxRetransDelay = pearl.Forever / 2
)

// Delay returns the retransmission delay before attempt `attempt` (1-based):
// Timeout * Backoff^(attempt-1), with the exponent capped at maxBackoffShift
// and the product at maxRetransDelay+1 — a delay Validate refuses, so for a
// validated Retrans and an attempt up to MaxRetries the delay is exact,
// positive and non-decreasing in attempt.
func (r Retrans) Delay(attempt int) pearl.Time {
	d := r.Timeout
	for i := 1; i < min(attempt, maxBackoffShift+1); i++ {
		if d > maxRetransDelay/pearl.Time(r.Backoff) {
			return maxRetransDelay + 1
		}
		d *= pearl.Time(r.Backoff)
	}
	return d
}

// validate refuses negative fields and a longest delay beyond
// maxRetransDelay, and writes the defaults in place of zero fields.
func (r *Retrans) validate() error {
	if r.Timeout < 0 {
		return fmt.Errorf("fault: negative retransmission timeout %d", r.Timeout)
	}
	if r.Backoff < 0 {
		return fmt.Errorf("fault: retransmission backoff %d must be >= 1", r.Backoff)
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("fault: negative retry bound %d", r.MaxRetries)
	}
	if r.Timeout == 0 {
		r.Timeout = defaultRetrans.Timeout
	}
	if r.Backoff == 0 {
		r.Backoff = defaultRetrans.Backoff
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = defaultRetrans.MaxRetries
	}
	if d := r.Delay(r.MaxRetries); d > maxRetransDelay {
		return fmt.Errorf("fault: retransmission timeout %d with backoff %d waits more than %d cycles before attempt %d",
			r.Timeout, r.Backoff, maxRetransDelay, r.MaxRetries)
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

// Validate checks the schedule against a machine of `nodes` nodes and writes
// the retransmission defaults in place of zero fields. Link endpoint
// adjacency is checked later, against the concrete topology, when the
// Injector is built.
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
