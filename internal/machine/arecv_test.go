package machine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mermaid/internal/ops"
	"mermaid/internal/sim"
	"mermaid/internal/trace"
)

// A trace whose waitrecv names a handle no arecv posted, or whose arecv
// reuses a handle still posted, decodes cleanly through the binary codec, so
// a replayed trace file can carry it. The run must end with an error naming
// the node, CPU and rank that issued the operation, on a task-level machine
// and on a detailed one alike, not panic.
func TestMalformedARecvHandlesAreRunErrors(t *testing.T) {
	arecv := func(tag uint32, handle uint64) ops.Op {
		o := ops.NewARecv(1, tag)
		o.Addr = handle
		return o
	}
	traces := map[string]struct {
		node0 []ops.Op
		want  string
	}{
		"unknown handle": {
			[]ops.Op{ops.NewCompute(10), ops.NewWaitRecv(9)},
			"waitrecv on handle 9",
		},
		"reused handle": {
			[]ops.Op{arecv(0, 7), ops.NewCompute(10), arecv(1, 7)},
			"arecv reuses handle 7",
		},
	}
	machines := map[string]Config{
		"task":     T805GridTaskLevel(2, 1),
		"detailed": T805Grid(2, 1),
	}
	for mname, cfg := range machines {
		for tname, tc := range traces {
			t.Run(mname+"/"+tname, func(t *testing.T) {
				var buf bytes.Buffer
				if err := ops.WriteAll(&buf, tc.node0); err != nil {
					t.Fatal(err)
				}
				m, err := Build(sim.NewEnv(1, nil), cfg)
				if err != nil {
					t.Fatal(err)
				}
				srcs := []trace.Source{trace.FromReader(&buf), trace.FromOps(nil)}
				err = func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panic: %v", p)
						}
					}()
					_, err = m.Run(srcs)
					return err
				}()
				if err == nil || strings.HasPrefix(err.Error(), "panic") {
					t.Fatalf("run ended with %v; want a run error", err)
				}
				for _, want := range []string{"node 0 cpu 0 (rank 0)", tc.want} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not say %q", err, want)
					}
				}
			})
		}
	}
}
