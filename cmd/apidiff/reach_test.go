package main

import (
	"strings"
	"testing"
)

// TestReachRules builds the fixture module's one binary (testdata/mod/cmd/m)
// and checks what the reachability gate flags and spares in package c, which
// declares one function per rule.
func TestReachRules(t *testing.T) {
	l, err := load("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	reached, err := linked(l)
	if err != nil {
		t.Fatal(err)
	}
	flagged := func(list map[string]string) map[string]string {
		got := map[string]string{}
		for _, f := range unreached(l, reached, list) {
			if strings.HasPrefix(f.name, "c.") {
				got[f.name] = f.pos + ": " + f.reason
			}
		}
		return got
	}
	check := func(list, want map[string]string) {
		t.Helper()
		got := flagged(list)
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
	}
	// Spared by the linker: a direct call (Direct, apply), a call inside a
	// closure (inClosure), a generic method through an instantiation
	// (Stack.Push) and a method called only through an interface (Impl.Speak).
	check(nil, map[string]string{
		"c.unreached":     "internal/c/c.go:25: linked into no binary",
		"c.ForOtherTests": "internal/c/c.go:23: linked into no binary",
	})
	// A list entry spares what another package's tests need; an entry for a
	// linked function, or for none, is itself flagged.
	check(map[string]string{
		"c.ForOtherTests": "b's tests",
		"c.Direct":        "stale: main calls it",
		"c.gone":          "stale: not declared",
	}, map[string]string{
		"c.unreached": "internal/c/c.go:25: linked into no binary",
		"c.Direct":    "internal/c/c.go:6: listed in testOnly but linked into a binary",
		"c.gone":      "cmd/apidiff/reach.go: listed in testOnly but not declared",
	})
}

func TestSymbolFunc(t *testing.T) {
	for _, tc := range []struct{ sym, want string }{
		{"m/internal/x.F", "m/internal/x.F"},
		{"m/internal/x.(*T).M", "m/internal/x.(*T).M"},
		{"m/internal/x.T.M", "m/internal/x.T.M"},
		{"m/internal/x.init.0", "m/internal/x.init"},
		{"m/internal/x.F.func1", "m/internal/x.F"},
		{"m/internal/x.F.func2.1", "m/internal/x.F"},
		{"m/internal/x.(*T).M.gowrap1", "m/internal/x.(*T).M"},
		{"m/internal/x.F.deferwrap3", "m/internal/x.F"},
		{"m/internal/x.(*fifo[go.shape.*uint8]).push", "m/internal/x.(*fifo).push"},
		{"m/internal/x.Map[go.shape.int,go.shape.[]map[string][2]int].func1", "m/internal/x.Map"},
		{"m/internal/x.(*Box[m/internal/x.Pair[go.shape.int,go.shape.[4]string]]).Get", "m/internal/x.(*Box).Get"},
		// Content-addressed: the linker may name another function's data.
		{"m/internal/workload.(*comm).AllReduce.arginfo1", ""},
		{"m/internal/x.F.argliveinfo", ""},
		{"m/internal/x.F.stkobj", ""},
		{"m/internal/x.F.opendefer", ""},
		{"m/internal/x.(*T).Close.wrapinfo", ""},
		{"m/internal/x.Map[go.shape.int].arginfo2", ""},
	} {
		got, ok := symbolFunc(tc.sym)
		if ok != (tc.want != "") || got != tc.want {
			t.Errorf("symbolFunc(%q) = %q, %v; want %q", tc.sym, got, ok, tc.want)
		}
	}
}
