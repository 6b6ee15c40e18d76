package stochastic

import (
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"mermaid/internal/ops"
	"mermaid/internal/trace"
)

// FuzzParseDesc feeds arbitrary bytes to ParseDesc — the path a -desc file or
// a job's "workload" document takes. It must never panic, and a description
// it accepts must survive a marshal and re-parse unchanged, so that a stored
// or re-submitted description runs the workload that was parsed. An accepted
// description small enough to drain (fuzzDrainCap) must also generate: every
// node's source, read through a cursor, fetches from its own code region,
// loads and stores within its own window, and yields the operations of
// Generate's slice for the node. Seeds: testdata/fuzz/FuzzParseDesc (the
// descriptions of the CLI tests, docs/TUTORIAL.md and the mermaidd usage
// example, and the benchmark's request descriptions rendered as JSON).
func FuzzParseDesc(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDesc(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted description does not marshal: %v", err)
		}
		again, err := ParseDesc(out)
		if err != nil {
			t.Fatalf("marshalled description does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("round trip changed the description:\nparsed:   %+v\nreparsed: %+v", d, again)
		}
		if d.Nodes == 0 {
			d.Nodes = 1 // as ParseDesc validates it
		}
		if fuzzSize(d) <= fuzzDrainCap {
			checkDrain(t, d)
		}
	})
}

// fuzzDrainCap bounds the operations a fuzzed description may stand for and
// still be drained: about 40 MB of Generate's slices.
const fuzzDrainCap = 1 << 20

// fuzzSize overestimates the operations of d: a computation amount six
// standard deviations above its mean, and every node in every round of the
// densest pattern.
func fuzzSize(d Desc) float64 {
	per := 0.0
	for _, ph := range d.Phases {
		per += 6 * float64(d.Nodes)
		if d.Level == InstructionLevel {
			per += 2 * float64(ph.Instructions) * (1 + 6*ph.CV)
		} else {
			per++
		}
	}
	return per * float64(d.Nodes) * float64(d.Iterations)
}

// checkDrain reads every node's source of a valid description and checks it
// against the description and against Generate.
func checkDrain(t *testing.T, d Desc) {
	traces, err := Generate(d)
	if err != nil {
		t.Fatalf("accepted description does not generate: %v", err)
	}
	srcs, err := Sources(d)
	if err != nil {
		t.Fatalf("accepted description has no sources: %v", err)
	}
	eff := d
	if err := eff.validate(); err != nil {
		t.Fatal(err)
	}
	for node, src := range srcs {
		pc0 := pcBase(node)
		cur := trace.NewCursor(src)
		var counts, want [ops.NumKinds + 1]int
		var pc uint64 // the last fetch address, 0 before the first
		for i := 0; ; i++ {
			ev, err := cur.Next()
			if err == io.EOF {
				if i != len(traces[node]) {
					t.Fatalf("node %d: source yields %d operations, Generate %d", node, i, len(traces[node]))
				}
				break
			}
			if err != nil {
				t.Fatalf("node %d: %v", node, err)
			}
			o := ev.Op
			counts[o.Kind]++
			switch o.Kind {
			case ops.IFetch:
				if o.Addr != pc0 && o.Addr != pc+4 || o.Addr >= pc0+4*loopBody {
					t.Fatalf("node %d op %d: fetch at %#x after %#x; code region %#x", node, i, o.Addr, pc, pc0)
				}
				pc = o.Addr
			case ops.Branch:
				if o.Addr != pc0 {
					t.Fatalf("node %d op %d: branch to %#x; code region %#x", node, i, o.Addr, pc0)
				}
			case ops.Load, ops.Store:
				if !inWindow(eff, node, o) {
					t.Fatalf("node %d op %d: %v outside every phase's window", node, i, o)
				}
			}
		}
		for _, o := range traces[node] {
			want[o.Kind]++
		}
		if counts != want {
			t.Fatalf("node %d: source's operation counts by kind %v, Generate's %v", node, counts, want)
		}
	}
}

// inWindow reports whether a load or store is one some phase of the validated
// description d makes: its access, at an offset from the node's base, modulo
// 2^64, within the working set.
func inWindow(d Desc, node int, o ops.Op) bool {
	for _, ph := range d.Phases {
		m := ph.Mem
		if o.Mem == m.Access && o.Addr-(m.Base+uint64(node)*m.WorkingSet) < m.WorkingSet {
			return true
		}
	}
	return false
}
