package main

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
)

// testOnly names the functions under internal/ that no binary links but
// tests in other packages need, each with those tests. An entry that a
// binary links, or that names no declaration, is itself a finding, so the
// list cannot outlive its reasons.
var testOnly = map[string]string{
	"cpu.DefaultTiming":                   "node's tests build their nodes with it",
	"ops.ReadAll":                         "node's TestTaskExtraction and the root package's trace benchmarks decode whole traces",
	"pearl.(*Kernel).Close":               "cache's and network's tests unwind processes they leave parked; goes with Process",
	"pearl.(*Kernel).Dispatches":          "machine's TestRunAheadDispatchFloor and node's TestAllocFreeRunAhead check that private nodes run ahead",
	"pearl.(*Kernel).RunUntil":            "the allocation tests of cache and probe, and tests of analysis and network, run a kernel in slices",
	"pearl.(*Kernel).Switches":            "the digest tests of node and machine, machine's TestSwitchBudget* and cache's tests assert it; goes with Process",
	"router.(*Config).UncontendedLatency": "network's TestZeroLoadLatencyMatchesFormula checks the engine against it",
	"trace.Collect":                       "annotate's tests drain translated programs",
}

// linked builds every main package of the module in one go build call with
// the linker's dependency dump on, and returns the functions under internal/
// that some binary reaches, named as declName names them.
func linked(l *loader) (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "apidiff")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Inlining is off in the module's packages, where it would hide a call;
	// the standard library keeps the build cache's objects.
	args := []string{"build", "-o", dir, "-gcflags=" + l.module + "/...=-l", "-ldflags=-dumpdep"}
	for _, p := range l.order {
		if len(p.files) > 0 && p.files[0].Name.Name == "main" {
			args = append(args, p.path)
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = l.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build of the main packages: %v\n%s", err, out)
	}
	prefix := l.module + "/internal/"
	reached := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if _, to, ok := strings.Cut(line, " -> "); ok && strings.HasPrefix(to, prefix) {
			if name, ok := symbolFunc(to); ok {
				reached[strings.TrimPrefix(name, prefix)] = true
			}
		}
	}
	return reached, nil
}

var (
	// auxSym matches the linker's content-addressed auxiliary symbols: the
	// linker shares one between functions with equal data, so the function
	// it names need not be the one that uses it.
	auxSym = regexp.MustCompile(`\.(arginfo\d+|argliveinfo|stkobj|opendefer|wrapinfo)$`)
	// typeArgs matches an innermost bracketed type argument list.
	typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)
	// closure matches the names the compiler gives a function's closures
	// and go and defer wrappers, nested ones included.
	closure = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?\d+)+$`)
)

// symbolFunc names the function a linker symbol belongs to: type arguments
// dropped, closures and wrappers folded into their function. It refuses
// auxiliary symbols.
func symbolFunc(sym string) (string, bool) {
	if auxSym.MatchString(sym) {
		return "", false
	}
	for prev := ""; prev != sym; {
		prev, sym = sym, typeArgs.ReplaceAllString(sym, "")
	}
	return closure.ReplaceAllString(sym, ""), true
}

// declName names a function declaration the way the linker does, relative
// to the module's internal/ directory: pkg.F, pkg.(*T).M or pkg.T.M.
func declName(pkg string, d *ast.FuncDecl) string {
	if d.Recv == nil {
		return pkg + "." + d.Name.Name
	}
	recv := receiverTypeName(d.Recv)
	if _, ptr := d.Recv.List[0].Type.(*ast.StarExpr); ptr {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + d.Name.Name
}

// unreached lists every function declared in a non-test file under
// internal/ that no binary links (see linked) and list does not name, and
// every entry of list that a binary links or that names no declaration.
func unreached(l *loader, reached map[string]bool, list map[string]string) []finding {
	var out []finding
	declared := map[string]bool{}
	for _, p := range l.order {
		pkg, ok := strings.CutPrefix(p.path, l.module+"/internal/")
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" {
					continue
				}
				name := declName(pkg, fd)
				declared[name] = true
				switch _, listed := list[name]; {
				case listed && reached[name]:
					out = append(out, finding{l.at(fd.Name.Pos()), name, "listed in testOnly but linked into a binary"})
				case !listed && !reached[name]:
					out = append(out, finding{l.at(fd.Name.Pos()), name, "linked into no binary"})
				}
			}
		}
	}
	for name := range list {
		if !declared[name] {
			out = append(out, finding{"cmd/apidiff/reach.go", name, "listed in testOnly but not declared"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos+out[i].name < out[j].pos+out[j].name })
	return out
}
