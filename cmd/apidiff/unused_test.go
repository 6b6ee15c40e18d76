package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// load parses and type-checks the module at root.
func load(root string) (*loader, error) {
	l, err := parse(root)
	if err != nil {
		return nil, err
	}
	return l, l.typeCheck()
}

// TestUnusedRules runs the gate on the fixture module in testdata/mod, which
// declares one identifier per rule, and checks what it flags and spares.
func TestUnusedRules(t *testing.T) {
	l, err := load("testdata/mod")
	if err != nil {
		t.Fatal(err) // the race_on/race_off pair would collide here
	}
	got := map[string]string{}
	for _, f := range unused(l) {
		got[f.name] = f.pos + ": " + f.reason
	}
	want := map[string]string{
		"a.Inside":      "internal/a/a.go:30: used only inside its package",
		"a.OwnTestOnly": "internal/a/a.go:25: no use outside its own package's tests",
		"a.XTestOnly":   "internal/a/a.go:26: no use outside its own package's tests",
		"a.Reached.Own": "internal/a/a.go:11: no use outside its own package's tests",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %q, want %q", name, got[name], w)
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s flagged (%s), want it spared", name, g)
		}
	}
	// The spared, by rule: used by another package (Used), used only by
	// another package's test (OtherTestOnly), reached through a used
	// signature (Reached) and field (Named), a String method (Named.String),
	// a generic type's method (Box.Get), a race-tagged pair (Race).
}

// TestWriteRefusesWhileFlagged: -write writes no golden while anything is
// flagged, and the check mode fails listing the findings.
func TestWriteRefusesWhileFlagged(t *testing.T) {
	golden := filepath.Join(t.TempDir(), "API.txt")
	for _, args := range [][]string{{"-write"}, nil} {
		var stderr bytes.Buffer
		if code := run(append(args, "-root", "testdata/mod", "-golden", golden), &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1; stderr:\n%s", args, code, &stderr)
		}
		if !strings.Contains(stderr.String(), "internal/a/a.go:30: a.Inside: used only inside its package") {
			t.Errorf("%v: stderr lacks the finding:\n%s", args, &stderr)
		}
		if _, err := os.Stat(golden); !os.IsNotExist(err) {
			t.Fatalf("%v: golden written while identifiers are flagged (%v)", args, err)
		}
	}
}
