package server_test

import (
	"reflect"
	"testing"

	"mermaid/internal/server"
	"mermaid/internal/topology"
)

// FuzzJobSpec holds the POST /jobs decoder to its contract: decoding and
// resolving an arbitrary document never panics, and a document it accepts
// yields a configuration that is a fixpoint of Validate (so its hash is that
// of the configuration the job runs), a cache key with both hashes, and a
// machine within the port cap.
func FuzzJobSpec(f *testing.F) {
	for _, doc := range digestJobs(f) {
		f.Add([]byte(doc))
	}
	for _, tc := range invalidJobs {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(torusJob("seed", 42, 10)))
	f.Add([]byte(`{"preset":"t805-task-4x4","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]}}`))
	f.Add([]byte(`{"topology":"star:16384","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]}}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, key, err := server.ResolveJob(doc)
		if err != nil {
			return
		}
		again := cfg
		if err := again.Validate(); err != nil {
			t.Fatalf("accepted job's configuration fails validation: %v\n%s", err, doc)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("accepted job's configuration is not a fixpoint of Validate:\nresolved:  %+v\nvalidated: %+v\n%s", cfg, again, doc)
		}
		if key.Config == "" || key.Workload == "" {
			t.Fatalf("accepted job has key %+v\n%s", key, doc)
		}
		tp, err := topology.New(cfg.Network.Topology)
		if err != nil {
			t.Fatalf("accepted job's topology: %v\n%s", err, doc)
		}
		if ports := tp.Nodes() * tp.Degree(); ports > server.MaxJobPorts {
			t.Fatalf("accepted job has %d ports, cap %d\n%s", ports, server.MaxJobPorts, doc)
		}
	})
}
