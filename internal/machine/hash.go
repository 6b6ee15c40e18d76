package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Hash returns a stable content hash of the configuration: the SHA-256 of
// its canonical JSON encoding, as hex. Two configurations that describe the
// same machine — regardless of key order or whitespace in a source file —
// hash identically; any semantic difference (a seed, a link latency, a
// fault window) produces a different hash.
//
// Together with a workload hash and a seed, the configuration hash is a
// complete address for a run's outcome: the workbench is deterministic by
// construction (byte-identical reports at any worker or shard count), so
// the simulation server's result cache keys on exactly this triple.
func (c Config) Hash() (string, error) {
	data, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("machine: hashing config: %w", err)
	}
	return CanonicalJSONHash(data)
}

// CanonicalJSONHash hashes a JSON document irrespective of object key order
// and insignificant whitespace: the document is decoded into generic values
// (numbers kept as their exact literals, so 64-bit seeds survive) and
// re-encoded — encoding/json emits object keys sorted — and the SHA-256 of
// that canonical form is returned as hex. The simulation server uses it to
// address a job's effective workload description.
func CanonicalJSONHash(data []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", fmt.Errorf("machine: canonicalizing JSON: %w", err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("machine: canonicalizing JSON: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
