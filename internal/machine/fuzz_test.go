package machine

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseConfig feeds arbitrary bytes to ParseConfig — the path a -config
// file or a job's "config" document takes. It must never panic, a
// configuration it accepts must be a fixpoint of Validate (every default
// already written back), and it must survive a marshal and re-parse
// unchanged, so that -dump-config output and stored configurations read back
// as what was run. Seeds: testdata/fuzz/FuzzParseConfig (every CLI preset's -dump-config
// JSON, and a preset with an empty fault list, which once re-parsed as a
// different configuration).
func FuzzParseConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		again := cfg
		if err := again.Validate(); err != nil || !reflect.DeepEqual(cfg, again) {
			t.Fatalf("accepted config is not a fixpoint of Validate (%v):\nparsed:    %+v\nvalidated: %+v", err, cfg, again)
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		again, err = ParseConfig(out)
		if err != nil {
			t.Fatalf("marshalled config does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("round trip changed the config:\nparsed:   %+v\nreparsed: %+v", cfg, again)
		}
	})
}
