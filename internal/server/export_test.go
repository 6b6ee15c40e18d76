package server

import (
	"bytes"

	"mermaid/internal/core"
	"mermaid/internal/machine"
	"mermaid/internal/resultcache"
)

// MaxJobPorts is the cap on nodes × topology degree of a job's machine.
const MaxJobPorts = maxJobPorts

// ResolveJob decodes a POST /jobs document and resolves it as a submission
// is resolved, running nothing: the configuration the job would run and the
// key its outcome would be cached under.
func ResolveJob(doc []byte) (machine.Config, resultcache.Key, error) {
	spec, err := core.DecodeRunSpec(bytes.NewReader(doc))
	if err != nil {
		return machine.Config{}, resultcache.Key{}, err
	}
	j, err := admit(spec)
	if err != nil {
		return machine.Config{}, resultcache.Key{}, err
	}
	return j.cfg, j.key, nil
}
