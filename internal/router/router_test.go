package router

import (
	"testing"
	"testing/quick"
)

// wireSizes lists the wire sizes of a message's packets, in order, as the
// engines read them: NumPackets, then PacketBytes per index.
func wireSizes(c Config, size uint32) []uint32 {
	out := make([]uint32, c.NumPackets(size))
	for i := range out {
		out[i] = c.PacketBytes(size, i)
	}
	return out
}

func TestPacketize(t *testing.T) {
	c := Config{MaxPacket: 100, HeaderBytes: 8}
	pkts := wireSizes(c, 250)
	want := []uint32{108, 108, 58}
	if len(pkts) != 3 {
		t.Fatalf("pkts = %v", pkts)
	}
	for i := range want {
		if pkts[i] != want[i] {
			t.Fatalf("pkts = %v, want %v", pkts, want)
		}
	}
	if c.NumPackets(250) != 3 {
		t.Fatal("NumPackets mismatch")
	}
}

func TestPacketizeZeroLength(t *testing.T) {
	c := Config{MaxPacket: 100, HeaderBytes: 8}
	pkts := wireSizes(c, 0)
	if len(pkts) != 1 || pkts[0] != 8 {
		t.Fatalf("pkts = %v, want [8]", pkts)
	}
	if c.NumPackets(0) != 1 {
		t.Fatal("zero-size message needs one packet")
	}
}

func TestPacketizeExactMultiple(t *testing.T) {
	c := Config{MaxPacket: 128, HeaderBytes: 0}
	pkts := wireSizes(c, 256)
	if len(pkts) != 2 || pkts[0] != 128 || pkts[1] != 128 {
		t.Fatalf("pkts = %v", pkts)
	}
}

// A message near the 4 GiB size limit still packetises in full: the packet
// count must not wrap in 32 bits.
func TestPacketizeLargestMessage(t *testing.T) {
	c := Config{MaxPacket: 4096, HeaderBytes: 8}
	const size = 1<<32 - 1
	if n := c.NumPackets(size); n != 1<<20 {
		t.Fatalf("NumPackets(%d) = %d, want %d", uint32(size), n, 1<<20)
	}
	if got := c.PacketBytes(size, 1<<20-1); got != 4095+8 {
		t.Fatalf("last packet = %d bytes, want %d", got, 4095+8)
	}
}

func TestUncontendedLatency(t *testing.T) {
	saf := Config{Switching: StoreAndForward, RoutingDelay: 2, MaxPacket: 1024}
	wh := Config{Switching: Wormhole, RoutingDelay: 2, MaxPacket: 1024}
	// 512-byte packet, 4 hops, 8 B/cyc, 1 cyc prop: transfer = 64.
	if got := saf.UncontendedLatency(512, 4, 8, 1); got != 4*(2+64+1) {
		t.Fatalf("SAF = %d, want %d", got, 4*(2+64+1))
	}
	if got := wh.UncontendedLatency(512, 4, 8, 1); got != 4*(2+1)+64 {
		t.Fatalf("WH = %d, want %d", got, 4*3+64)
	}
	// Cut-through always at most store-and-forward.
	if wh.UncontendedLatency(512, 4, 8, 1) > saf.UncontendedLatency(512, 4, 8, 1) {
		t.Fatal("wormhole slower than SAF uncontended")
	}
}

func TestValidate(t *testing.T) {
	good := Config{Switching: Wormhole, RoutingDelay: 2, MaxPacket: 4096, HeaderBytes: 8}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{MaxPacket: 0},
		{MaxPacket: 64, RoutingDelay: -1},
		{MaxPacket: 64, HeaderBytes: -1},
		{MaxPacket: 64, Switching: 99},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestSwitchingByName(t *testing.T) {
	for _, s := range []Switching{StoreAndForward, VirtualCutThrough, Wormhole} {
		got, ok := switchingByName(s.String())
		if !ok || got != s {
			t.Errorf("round trip failed for %s", s)
		}
	}
	if got, ok := switchingByName("wh"); !ok || got != Wormhole {
		t.Error("short name wh failed")
	}
	if _, ok := switchingByName("bogus"); ok {
		t.Error("bogus resolved")
	}
}

// Property: packetisation covers the message exactly once.
func TestPacketizeCoversProperty(t *testing.T) {
	f := func(size uint32, max16 uint16, hdr8 uint8) bool {
		size = size % (1 << 20)
		c := Config{MaxPacket: int(max16%4096) + 1, HeaderBytes: int(hdr8 % 64)}
		var payload uint64
		for _, p := range wireSizes(c, size) {
			if int(p) < c.HeaderBytes {
				return false
			}
			payload += uint64(p) - uint64(c.HeaderBytes)
		}
		if size == 0 {
			return payload == 0
		}
		return payload == uint64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchingJSONRoundTrip(t *testing.T) {
	for _, s := range []Switching{StoreAndForward, VirtualCutThrough, Wormhole} {
		data, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Switching
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Fatalf("round trip: %v != %v", back, s)
		}
	}
	var s Switching
	if err := s.UnmarshalJSON([]byte(`"warp"`)); err == nil {
		t.Fatal("expected error")
	}
}

func TestRoutingJSONRoundTrip(t *testing.T) {
	for _, r := range []Routing{Minimal, Valiant, Adaptive} {
		data, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Routing
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if back != r {
			t.Fatalf("round trip: %v != %v", back, r)
		}
	}
	var r Routing
	if err := r.UnmarshalJSON([]byte(`"teleport"`)); err == nil {
		t.Fatal("expected error")
	}
}

func TestValiantWormholeRejected(t *testing.T) {
	c := Config{MaxPacket: 64, Switching: Wormhole, Routing: Valiant}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error")
	}
	c.Switching = VirtualCutThrough
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
