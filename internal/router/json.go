package router

import (
	"encoding/json"
	"fmt"
)

// MarshalJSON encodes the switching strategy by name.
func (s Switching) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a switching strategy from its name (long or short
// form, e.g. "wormhole" or "wh").
func (s *Switching) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	v, ok := switchingByName(name)
	if !ok {
		return fmt.Errorf("router: unknown switching strategy %q", name)
	}
	*s = v
	return nil
}
