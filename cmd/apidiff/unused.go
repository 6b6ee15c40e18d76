package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A finding is one exported identifier of the API.txt surface that no file
// outside its own package uses.
type finding struct{ pos, name, reason string }

func (f finding) String() string { return f.pos + ": " + f.name + ": " + f.reason }

// stdIfaces are the standard-library interfaces whose methods count as used
// when an exported type implements them, beside error and every interface
// the module declares.
var stdIfaces = [][2]string{
	{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"sort", "Interface"}, {"net/http", "Handler"},
}

// pkgDir is one directory of the module, its files split the way the go
// tool splits them: the package, its in-package tests, its external tests.
type pkgDir struct {
	path                 string
	files, tests, xtests []*ast.File
	pkg                  *types.Package
	checking             bool
}

// loader type-checks every package of a module from source. Module imports
// resolve to the loader's own packages, so an object has one identity
// wherever it is used; the standard library comes from go/importer's
// "source" importer. uses collects the Info.Uses of every check.
type loader struct {
	root, module string
	fset         *token.FileSet
	dirs         map[string]*pkgDir // by import path
	order        []*pkgDir
	std          types.ImporterFrom
	uses         map[*ast.Ident]types.Object
	errs         []error
}

// stdImporter type-checks standard-library packages from source, each once
// per process however many modules are loaded.
var stdImporter = sync.OnceValue(func() types.ImporterFrom {
	build.Default.CgoEnabled = false // the source importer reads build.Default
	return importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
})

// parse parses every directory of the module at root, files selected by the
// build context as the go tool selects them.
func parse(root string) (*loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{root: root, fset: token.NewFileSet(), dirs: map[string]*pkgDir{}, uses: map[*ast.Ident]types.Object{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			l.module = f[1]
		}
	}
	l.std = stdImporter()
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		return l.parseDir(dir)
	})
	return l, err
}

// typeCheck type-checks each package, then each package's tests: the
// in-package tests with their package, and the external tests against that
// test variant, where export_test.go files live.
func (l *loader) typeCheck() error {
	for _, p := range l.order {
		if len(p.files) > 0 {
			if _, err := l.Import(p.path); err != nil {
				return err
			}
		}
	}
	if len(l.errs) > 0 {
		return l.errs[0]
	}
	for _, p := range l.order {
		withTests := p.pkg
		if len(p.tests) > 0 {
			withTests = l.check(p.path, append(append([]*ast.File{}, p.files...), p.tests...), l, false)
		}
		if len(p.xtests) > 0 {
			l.check(p.path+"_test", p.xtests, variant{l, p.path, withTests}, false)
		}
	}
	return nil
}

// parseDir parses the Go files of one directory.
func (l *loader) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return err
	}
	p := &pkgDir{path: strings.TrimSuffix(l.module+"/"+filepath.ToSlash(rel), "/.")}
	for _, e := range entries {
		name := e.Name()
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		switch {
		case err != nil:
			return err
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
	}
	if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
		l.dirs[p.path] = p
		l.order = append(l.order, p)
	}
	return nil
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

// ImportFrom resolves an import of a module package's non-test files.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p, ok := l.dirs[path]
	switch {
	case !ok:
		return l.std.ImportFrom(path, dir, mode)
	case p.pkg == nil && p.checking:
		return nil, fmt.Errorf("import cycle through %s", path)
	case p.pkg == nil:
		p.checking = true
		p.pkg = l.check(path, p.files, l, true)
	}
	return p.pkg, nil
}

// check type-checks one package and records its uses. Errors in a package's
// own files fail the scan; those of a test variant (an external test sees
// dependencies built against the plain package) are let be, since the uses
// are recorded all the same.
func (l *loader) check(path string, files []*ast.File, imp types.Importer, strict bool) *types.Package {
	conf := types.Config{Importer: imp, Error: func(err error) {
		if strict {
			l.errs = append(l.errs, err)
		}
	}}
	pkg, _ := conf.Check(path, l.fset, files, &types.Info{Uses: l.uses})
	return pkg
}

// variant imports the test variant of one package in place of the package.
type variant struct {
	*loader
	path string
	pkg  *types.Package
}

func (v variant) Import(path string) (*types.Package, error) { return v.ImportFrom(path, "", 0) }

func (v variant) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == v.path {
		return v.pkg, nil
	}
	return v.loader.ImportFrom(path, dir, mode)
}

// unused lists every identifier of the API.txt surface — package-level
// funcs, types, consts and vars under internal/, and methods on their
// exported types — that no .go file in another directory of the module
// uses, test files included; a generic instantiation counts for its origin.
// A named type is also used when it appears in the exported signature or
// fields of a used identifier, and a method when it implements an interface
// of the module's, error, or one of stdIfaces.
func unused(l *loader) []finding {
	var cands []types.Object
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, s := range stdIfaces {
		if pkg, err := l.std.ImportFrom(s[0], l.root, 0); err == nil {
			ifaces = append(ifaces, pkg.Scope().Lookup(s[1]).Type().Underlying().(*types.Interface))
		}
	}
	for _, p := range l.order {
		if p.pkg == nil {
			continue
		}
		inScope := strings.HasPrefix(p.path, l.module+"/internal/")
		for _, name := range p.pkg.Scope().Names() {
			obj := p.pkg.Scope().Lookup(name)
			named, isNamed := obj.Type().(*types.Named)
			if it, ok := obj.Type().Underlying().(*types.Interface); ok && isNamed {
				ifaces = append(ifaces, it)
			}
			if !inScope || !obj.Exported() {
				continue
			}
			cands = append(cands, obj)
			if _, ok := obj.(*types.TypeName); ok && isNamed {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						cands = append(cands, m)
					}
				}
			}
		}
	}

	// A receiver, or a use inside the function's own body, does not make an
	// identifier used inside its package: a type only its methods name, or
	// a function only it calls, is used nowhere.
	own := map[token.Pos][2]token.Pos{}
	recv := map[token.Pos]bool{}
	for _, p := range l.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					own[fd.Name.Pos()] = [2]token.Pos{fd.Pos(), fd.End()}
					if fd.Recv != nil {
						ast.Inspect(fd.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id.Pos()] = true
							}
							return true
						})
					}
				}
			}
		}
	}
	// Objects are keyed by their declaring identifier's position, which the
	// objects of a generic instantiation share with their origin.
	used := map[token.Pos]bool{}
	inside := map[token.Pos]bool{} // a non-test use in its own directory
	for id, obj := range l.uses {
		if obj.Pkg() == nil || l.dirs[strings.TrimSuffix(obj.Pkg().Path(), "_test")] == nil {
			continue
		}
		file, decl := l.fset.Position(id.Pos()).Filename, l.fset.Position(obj.Pos()).Filename
		switch span, isOwn := own[obj.Pos()]; {
		case filepath.Dir(file) != filepath.Dir(decl):
			used[obj.Pos()] = true
		case !strings.HasSuffix(file, "_test.go") && !recv[id.Pos()] && !(isOwn && id.Pos() >= span[0] && id.Pos() < span[1]):
			inside[obj.Pos()] = true
		}
	}

	// The types reached through the exported signature or fields of a used
	// identifier are used too.
	var queue []types.Type
	for _, obj := range cands {
		if used[obj.Pos()] {
			queue = append(queue, obj.Type())
		}
	}
	seen := map[types.Type]bool{}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[t] {
			continue
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			queue = append(queue, types.Unalias(t))
		case *types.Named:
			used[t.Origin().Obj().Pos()] = true
			queue = append(queue, t.Origin().Underlying())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				queue = append(queue, t.TypeArgs().At(i))
			}
		case *types.Map:
			queue = append(queue, t.Key(), t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			queue = append(queue, t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					queue = append(queue, tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					queue = append(queue, f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumExplicitMethods(); i++ {
				if m := t.ExplicitMethod(i); m.Exported() {
					queue = append(queue, m.Type())
				}
			}
		}
	}

	var out []finding
	for _, obj := range cands {
		name := obj.Pkg().Name() + "." + obj.Name()
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if implements(recv.(*types.Named), obj.Name(), ifaces) {
				continue
			}
			name = obj.Pkg().Name() + "." + recv.(*types.Named).Obj().Name() + "." + obj.Name()
		}
		if used[obj.Pos()] {
			continue
		}
		reason := "no use outside its own package's tests"
		if inside[obj.Pos()] {
			reason = "used only inside its package"
		}
		out = append(out, finding{l.at(obj.Pos()), name, reason})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// at renders a position as a module-relative file:line.
func (l *loader) at(p token.Pos) string {
	pos := l.fset.Position(p)
	rel, _ := filepath.Rel(l.root, pos.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
}

// implements reports whether t, or a pointer to it, implements an interface
// that declares a method of this name. A generic type implements none.
func implements(t *types.Named, method string, ifaces []*types.Interface) bool {
	if t.TypeParams().Len()+t.TypeArgs().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
