package machine

import (
	"cmp"
	"reflect"
	"strings"
	"testing"

	"mermaid/internal/bus"
	"mermaid/internal/fault"
	"mermaid/internal/router"
	"mermaid/internal/topology"
)

func TestConfigHashStability(t *testing.T) {
	a := T805GridTaskLevel(4, 4)
	b := T805GridTaskLevel(4, 4)
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("identical configs hash differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 || strings.ToLower(ha) != ha {
		t.Errorf("hash is not lowercase sha256 hex: %q", ha)
	}

	b.Seed = a.Seed + 1
	hb2, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hb2 == ha {
		t.Error("changing the seed did not change the hash")
	}

	c := T805GridTaskLevel(4, 4)
	c.Network.Link.PropDelay++
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Error("changing a link latency did not change the hash")
	}

	// A preset and the same preset with every defaulted field written out
	// are one machine: after Validate they are one value and one hash.
	for name, mk := range map[string]func() Config{
		"t805-2x2": func() Config { return T805Grid(2, 2) },
		"task":     func() Config { return T805GridTaskLevel(4, 4) },
		"hybrid":   func() Config { return HybridCluster(2, 2, 2) },
		"ppc601":   PPC601Machine,
		"torus+faults": func() Config {
			return withLinkFault(GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4}, 16, router.Wormhole))
		},
	} {
		preset, written := mk(), mk()
		bc, mc := &written.Node.Hierarchy.Bus, &written.Node.Hierarchy.Memory
		if written.Mode == Detailed || written.Node.Hierarchy.CPUs > 0 {
			bc.Kind, bc.Width, bc.Banks, bc.InterleaveBytes = bus.KindBus, cmp.Or(bc.Width, 8), 4, 64
			mc.BytesPerCycle, mc.Ports = cmp.Or(mc.BytesPerCycle, 8), cmp.Or(mc.Ports, 1)
			written.Node.Timing.FetchBytes = 4
		}
		if written.Nodes > 1 {
			written.Network.LocalBytesPerCycle = 8
		}
		if written.Faults != nil {
			f := *written.Faults
			f.Retrans = fault.Retrans{Timeout: 500, Backoff: 2, MaxRetries: 16}
			written.Faults = &f
		}
		for _, c := range []*Config{&preset, &written} {
			if err := c.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		hp, err := preset.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hw, err := written.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hp != hw || !reflect.DeepEqual(preset, written) {
			t.Errorf("%s: the preset validates to %s, written out to %s:\n%+v\n%+v", name, hp, hw, preset, written)
		}
	}
}

func withLinkFault(c Config) Config {
	c.Faults = &fault.Schedule{Links: []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 10, To: 20}}}}
	return c
}

func TestCanonicalJSONHash(t *testing.T) {
	// Key order and whitespace are insignificant; values are not.
	h1, err := CanonicalJSONHash([]byte(`{"a": 1, "b": [2, 3]}`))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := CanonicalJSONHash([]byte(`{ "b":[2,3],  "a":1 }`))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("key order or whitespace changed the canonical hash")
	}
	h3, err := CanonicalJSONHash([]byte(`{"a": 1, "b": [2, 4]}`))
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("a value change did not change the canonical hash")
	}

	// Full-precision 64-bit seeds must survive canonicalization: these two
	// differ only below float64 precision.
	h4, err := CanonicalJSONHash([]byte(`{"Seed": 9007199254740993}`))
	if err != nil {
		t.Fatal(err)
	}
	h5, err := CanonicalJSONHash([]byte(`{"Seed": 9007199254740992}`))
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h5 {
		t.Error("64-bit integer precision lost in canonicalization")
	}

	if _, err := CanonicalJSONHash([]byte(`{"a":`)); err == nil {
		t.Error("truncated JSON must not hash")
	}
}
