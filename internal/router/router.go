// Package router parameterises the router component of the multi-node
// communication model (Fig. 3b): how messages are split into packets and
// which switching strategy moves packets across the network. The routing
// function itself (which output port) comes from the topology package; the
// router contributes the per-hop costs and the channel-holding discipline.
package router

import (
	"fmt"

	"mermaid/internal/pearl"
)

// Switching selects the packet-forwarding discipline.
type Switching uint8

const (
	// StoreAndForward receives a packet completely at every hop before
	// forwarding it; per-hop cost includes the full packet transfer.
	StoreAndForward Switching = iota
	// VirtualCutThrough forwards the header as soon as the route is decided;
	// the body streams behind. A blocked packet is buffered at the current
	// node, releasing the upstream channel once its body has drained.
	VirtualCutThrough
	// Wormhole also cuts through, but a blocked packet stalls in place and
	// keeps every channel it has acquired until delivery — the tree-
	// saturation behaviour characteristic of wormhole routing. (The release
	// of upstream channels is approximated to delivery time; see DESIGN.md.)
	Wormhole
)

// String returns the strategy name.
func (s Switching) String() string {
	switch s {
	case StoreAndForward:
		return "store-and-forward"
	case VirtualCutThrough:
		return "virtual-cut-through"
	case Wormhole:
		return "wormhole"
	}
	return "?"
}

// switchingByName resolves a strategy name (for configs); ok is false for
// unknown names.
func switchingByName(s string) (Switching, bool) {
	switch s {
	case "store-and-forward", "saf":
		return StoreAndForward, true
	case "virtual-cut-through", "vct":
		return VirtualCutThrough, true
	case "wormhole", "wh":
		return Wormhole, true
	}
	return 0, false
}

// Routing selects the path-selection strategy ("it uses a configurable
// routing and switching strategy", §4.2).
type Routing uint8

const (
	// Minimal is deterministic minimal routing: dimension-order on
	// meshes/tori, e-cube on hypercubes, shortest way on rings.
	Minimal Routing = iota
	// Valiant is randomised oblivious routing: every packet first travels
	// minimally to a uniformly random intermediate node, then minimally to
	// its destination. Doubles the average path but spreads adversarial
	// permutations over the whole machine.
	Valiant
	// Adaptive is minimal adaptive routing: at every hop the router chooses,
	// among the ports on minimal paths, the one whose output channel is
	// least loaded. Paths stay minimal; congestion steers them.
	Adaptive
)

// String returns the routing-strategy name.
func (r Routing) String() string {
	switch r {
	case Valiant:
		return "valiant"
	case Adaptive:
		return "adaptive"
	}
	return "minimal"
}

// MarshalJSON encodes the routing strategy by name.
func (r Routing) MarshalJSON() ([]byte, error) {
	return []byte(`"` + r.String() + `"`), nil
}

// UnmarshalJSON decodes "minimal", "valiant" or "adaptive".
func (r *Routing) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"minimal"`, `""`:
		*r = Minimal
	case `"valiant"`:
		*r = Valiant
	case `"adaptive"`:
		*r = Adaptive
	default:
		return fmt.Errorf("router: unknown routing strategy %s", b)
	}
	return nil
}

// Config parameterises the routers of a multicomputer.
type Config struct {
	Switching Switching
	// Routing selects minimal or Valiant path selection.
	Routing Routing
	// RoutingDelay is the per-hop cost of the routing decision (header
	// processing).
	RoutingDelay pearl.Time
	// MaxPacket is the largest packet payload in bytes; longer messages are
	// split ("this may include splitting up messages into multiple
	// packets").
	MaxPacket int
	// HeaderBytes is the per-packet header overhead added to the wire size.
	HeaderBytes int
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.MaxPacket <= 0 {
		return fmt.Errorf("router: MaxPacket %d", c.MaxPacket)
	}
	if c.RoutingDelay < 0 {
		return fmt.Errorf("router: negative routing delay")
	}
	if c.HeaderBytes < 0 {
		return fmt.Errorf("router: negative header size")
	}
	if c.Switching > Wormhole {
		return fmt.Errorf("router: unknown switching strategy %d", c.Switching)
	}
	if c.Routing > Adaptive {
		return fmt.Errorf("router: unknown routing strategy %d", c.Routing)
	}
	if c.Routing != Minimal && c.Switching == Wormhole {
		// Non-dimension-ordered paths would need additional virtual channel
		// classes to stay deadlock-free; restrict the randomised and
		// adaptive strategies to the buffered switching modes.
		return fmt.Errorf("router: %s routing requires store-and-forward or virtual cut-through", c.Routing)
	}
	return nil
}

// NumPackets returns how many packets a message of the given size needs. A
// zero-byte message still needs one (header-only) packet.
func (c *Config) NumPackets(size uint32) int {
	if size == 0 {
		return 1
	}
	return int((uint64(size) + uint64(c.MaxPacket) - 1) / uint64(c.MaxPacket))
}

// PacketBytes returns the wire size (payload plus header) of packet i of a
// message of size bytes, 0 <= i < NumPackets(size): every packet but the
// last carries MaxPacket bytes of payload, the last the rest.
func (c *Config) PacketBytes(size uint32, i int) uint32 {
	payload := size - uint32(i)*uint32(c.MaxPacket)
	if payload > uint32(c.MaxPacket) {
		payload = uint32(c.MaxPacket)
	}
	return payload + uint32(c.HeaderBytes)
}

// UncontendedLatency returns the analytic zero-load latency of one packet of
// wire size pkt across hops links of the given bandwidth and propagation
// delay — the textbook formulas the simulator should agree with in the
// absence of contention:
//
//	SAF: hops * (routing + pkt/bw + prop)
//	VCT/WH: hops * (routing + prop) + pkt/bw
func (c *Config) UncontendedLatency(pkt uint32, hops int, bytesPerCycle int, prop pearl.Time) pearl.Time {
	transfer := pearl.Time((int(pkt) + bytesPerCycle - 1) / bytesPerCycle)
	perHop := c.RoutingDelay + prop
	if c.Switching == StoreAndForward {
		return pearl.Time(hops) * (perHop + transfer)
	}
	return pearl.Time(hops)*perHop + transfer
}
