package cache

import (
	"encoding/json"
	"fmt"
)

// MarshalJSON encodes the write policy by name.
func (w WritePolicy) MarshalJSON() ([]byte, error) { return json.Marshal(w.String()) }

// UnmarshalJSON decodes a write policy from "write-back" or "write-through".
func (w *WritePolicy) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "write-back", "wb", "":
		*w = WriteBack
	case "write-through", "wt":
		*w = WriteThrough
	default:
		return fmt.Errorf("cache: unknown write policy %q", name)
	}
	return nil
}

// MarshalJSON encodes the replacement policy by name.
func (r Replacement) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON decodes a replacement policy from "LRU", "FIFO" or "random".
func (r *Replacement) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "LRU", "lru", "":
		*r = lru
	case "FIFO", "fifo":
		*r = fifo
	case "random":
		*r = Random
	default:
		return fmt.Errorf("cache: unknown replacement policy %q", name)
	}
	return nil
}

// MarshalJSON encodes the coherence scheme by name.
func (c Coherence) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON decodes a coherence scheme from "none", "snoopy-MESI" or
// "directory".
func (c *Coherence) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "none", "":
		*c = NoCoherence
	case "snoopy-MESI", "snoopy", "mesi":
		*c = Snoopy
	case "directory", "dir":
		*c = Directory
	default:
		return fmt.Errorf("cache: unknown coherence scheme %q", name)
	}
	return nil
}
