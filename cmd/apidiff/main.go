// Command apidiff guards the workbench's exported API surface. It parses
// and type-checks the module from source (go/parser, go/types and the
// "source" importer; no dependencies), renders each exported declaration
// under internal/ as one normalized line, and compares the sorted result
// against the checked-in golden API.txt (the default mode; CI runs it), so
// an unintentional signature change fails the build with a readable diff.
// An intentional change is committed by regenerating the golden with
// `-write`.
//
// The surface covers exported functions, methods on exported receivers,
// type definitions (struct fields and interface methods filtered to the
// exported ones), constants and variables. Unexported details — field
// renames, method bodies, doc comments — never appear, so refactors that
// keep the API stable keep the golden byte-identical.
//
// Every identifier on that surface must also earn its place, and so must
// every function under internal/: both modes fail, and -write writes
// nothing, while an identifier is used by no file in another directory of
// the module (see unused) or a function is linked into none of the module's
// binaries, which one go build of every main reports (see linked).
package main

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run checks (or with -write regenerates) the golden surface and returns
// the exit status: 0 clean, 1 a finding or a drift, 2 an error.
func run(args []string, stderr io.Writer) int {
	fl := flag.NewFlagSet("apidiff", flag.ContinueOnError)
	fl.SetOutput(stderr)
	write := fl.Bool("write", false, "regenerate the golden file instead of checking against it")
	golden := fl.String("golden", "API.txt", "golden API surface file")
	root := fl.String("root", ".", "module root to scan")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	l, err := parse(*root)
	if err != nil {
		fmt.Fprintln(stderr, "apidiff:", err)
		return 2
	}
	// The build runs beside the type-check, which reads the same syntax.
	var reached map[string]bool
	built := make(chan error, 1)
	go func() {
		var err error
		reached, err = linked(l)
		built <- err
	}()
	if err := cmp.Or(l.typeCheck(), <-built); err != nil {
		fmt.Fprintln(stderr, "apidiff:", err)
		return 2
	}
	surface := scan(l)
	if findings := append(unused(l), unreached(l, reached, testOnly)...); len(findings) > 0 {
		fmt.Fprintf(stderr, "apidiff: %d identifiers do not earn their place:\n", len(findings))
		for _, f := range findings {
			fmt.Fprintln(stderr, f)
		}
		fmt.Fprintln(stderr, "Unexport what only its own package uses and delete what only its own tests use, or move it into them;")
		fmt.Fprintln(stderr, "list in testOnly (cmd/apidiff/reach.go), with those tests, a function no binary links that other packages' tests need.")
		return 1
	}
	if *write {
		if err := os.WriteFile(*golden, []byte(surface), 0o644); err != nil {
			fmt.Fprintln(stderr, "apidiff:", err)
			return 2
		}
		return 0
	}
	want, err := os.ReadFile(*golden)
	if err != nil {
		fmt.Fprintf(stderr, "apidiff: reading golden: %v (run `go run ./cmd/apidiff -write` to create it)\n", err)
		return 2
	}
	if diff := diffLines(string(want), surface); diff != "" {
		fmt.Fprintf(stderr, "apidiff: exported API differs from %s:\n%s", *golden, diff)
		fmt.Fprintln(stderr, "If the change is intentional, regenerate with `go run ./cmd/apidiff -write`.")
		return 1
	}
	return 0
}

// scan renders the exported API of every package under internal/ as a
// sorted newline-terminated string.
func scan(l *loader) string {
	var lines []string
	for _, p := range l.order {
		pkg := strings.TrimPrefix(p.path, l.module+"/")
		if !strings.HasPrefix(pkg, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if line, ok := funcLine(l.fset, d); ok {
						lines = append(lines, pkg+": "+line)
					}
				case *ast.GenDecl:
					for _, line := range genLines(l.fset, d) {
						lines = append(lines, pkg+": "+line)
					}
				}
			}
		}
	}
	sort.Strings(lines)
	// The same line may come from two files of a package (a method set split
	// across files renders alike); compacting keeps the golden stable
	// however declarations are split.
	return strings.Join(slices.Compact(lines), "\n") + "\n"
}

// funcLine renders an exported function or an exported method on an
// exported receiver type.
func funcLine(fset *token.FileSet, d *ast.FuncDecl) (string, bool) {
	if !d.Name.IsExported() {
		return "", false
	}
	if d.Recv != nil && !ast.IsExported(receiverTypeName(d.Recv)) {
		return "", false
	}
	clean := *d
	clean.Doc = nil
	clean.Body = nil
	return render(fset, &clean), true
}

// receiverTypeName unwraps a method receiver to its base type name.
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

// genLines renders the exported parts of a const/var/type declaration
// group, one line per exported name.
func genLines(fset *token.FileSet, d *ast.GenDecl) []string {
	var out []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			clean := *s
			clean.Doc = nil
			clean.Comment = nil
			clean.Type = exportedType(s.Type)
			out = append(out, render(fset, &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{&clean}}))
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				line := d.Tok.String() + " " + name.Name
				if s.Type != nil {
					line += " " + render(fset, s.Type)
				}
				if i < len(s.Values) {
					line += " = " + render(fset, s.Values[i])
				}
				out = append(out, line)
			}
		}
	}
	return out
}

// exportedType strips unexported members from struct and interface types so
// internal reshuffles never show up as API changes.
func exportedType(t ast.Expr) ast.Expr {
	switch v := t.(type) {
	case *ast.StructType:
		clean := *v
		clean.Fields = exportedFields(v.Fields, false)
		return &clean
	case *ast.InterfaceType:
		clean := *v
		clean.Methods = exportedFields(v.Methods, true)
		return &clean
	}
	return t
}

func exportedFields(fl *ast.FieldList, embedExported bool) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			// Embedded field or interface embedding: part of the API when
			// the embedded name is exported.
			if name := embeddedName(f.Type); name == "" || ast.IsExported(name) || embedExported {
				out.List = append(out.List, &ast.Field{Type: f.Type})
			}
			continue
		}
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(names) > 0 {
			out.List = append(out.List, &ast.Field{Names: names, Type: f.Type, Tag: f.Tag})
		}
	}
	return out
}

func embeddedName(t ast.Expr) string {
	switch v := t.(type) {
	case *ast.StarExpr:
		return embeddedName(v.X)
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.Ident:
		return v.Name
	}
	return ""
}

// render prints a node on a single whitespace-normalized line.
func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<unprintable: %v>", err)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}

// diffLines reports, line-set wise, what check-time surface gained and lost
// relative to the golden. Both inputs are sorted, so a two-pointer sweep
// yields a stable, minimal listing.
func diffLines(want, got string) string {
	w := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	g := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	var buf strings.Builder
	i, j := 0, 0
	for i < len(w) || j < len(g) {
		switch {
		case j >= len(g) || (i < len(w) && w[i] < g[j]):
			fmt.Fprintf(&buf, "  - %s\n", w[i])
			i++
		case i >= len(w) || g[j] < w[i]:
			fmt.Fprintf(&buf, "  + %s\n", g[j])
			j++
		default:
			i++
			j++
		}
	}
	return buf.String()
}
