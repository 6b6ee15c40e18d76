package core

import (
	"encoding/json"
	"testing"
)

// Every preset resolves to its effective configuration: no field whose zero
// means a default reads 0, so -dump-config prints what the model runs. The
// network's fields are checked on networked machines, the node's on every
// machine that carries one, the retransmission parameters under a fault
// schedule that leaves them unset.
func TestPresetsResolveEveryDefault(t *testing.T) {
	const faults = `{"links": [{"a": 0, "b": 1, "from": 10, "to": 20}]}`
	for _, name := range PresetNames() {
		networked := false
		for _, withFaults := range []bool{false, true} {
			if withFaults && !networked {
				continue // a fault plan needs a network
			}
			spec := RunSpec{Preset: name}
			if withFaults {
				spec.Faults = json.RawMessage(faults)
			}
			cfg, _, err := spec.Resolve()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			networked = cfg.Nodes > 1
			h, tm := cfg.Node.Hierarchy, cfg.Node.Timing
			fields := map[string]bool{
				"Bus.Kind":             h.Bus.Kind == "",
				"Bus.Width":            h.Bus.Width == 0,
				"Bus.Banks":            h.Bus.Banks == 0,
				"Bus.InterleaveBytes":  h.Bus.InterleaveBytes == 0,
				"Memory.BytesPerCycle": h.Memory.BytesPerCycle == 0,
				"Memory.Ports":         h.Memory.Ports == 0,
				"Timing.FetchBytes":    tm.FetchBytes == 0,
			}
			if networked {
				fields["Network.LocalBytesPerCycle"] = cfg.Network.LocalBytesPerCycle == 0
			}
			if withFaults {
				rt := cfg.Faults.Retrans
				fields["Retrans.Timeout"] = rt.Timeout == 0
				fields["Retrans.Backoff"] = rt.Backoff == 0
				fields["Retrans.MaxRetries"] = rt.MaxRetries == 0
			}
			for field, zero := range fields {
				if zero {
					t.Errorf("%s (faults %v): %s reads 0 in the resolved configuration", name, withFaults, field)
				}
			}
		}
	}
}
