package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// runTestonly flags exported functions, methods, types, variables and
// constants declared in the non-test files of a package under internal/
// that no non-test file of the module references. Such an export keeps
// code in the build (and sometimes work on the hot path) that only tests
// reach. Two kinds of method are exempt: one that satisfies an interface
// of the loaded packages or of the standard library they import (it is
// reached by dynamic dispatch), and one of a type a non-internal package
// re-exports as an alias (it is public API). The loader skips _test.go
// files, so a reference from a test never counts.
//
// An export is only judged when every module package that imports its
// package, directly or not, is loaded; otherwise an unloaded package may
// be the one that uses it, and a partial run such as xyvet ./internal/core
// would report it falsely.
func runTestonly(e *engine) []Finding {
	open := openPackages(e.pkgs)
	used := make(map[types.Object]bool)
	for _, pkg := range e.pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, obj := range pkg.Info.Uses {
			used[originObject(obj)] = true
		}
	}
	ifaces, aliased := exemptions(e.pkgs)

	var out []Finding
	report := func(pkg *Package, id *ast.Ident, name string) {
		obj := pkg.Info.Defs[id]
		if obj == nil || !id.IsExported() || used[obj] {
			return
		}
		out = append(out, Finding{
			Pos:  id.Pos(),
			Rule: "testonly",
			Msg: fmt.Sprintf("%s.%s is exported but no non-test file references it; delete it, move it into the tests that use it, give it a production caller, or mark a deliberate test seam with //xyvet:ignore testonly <reason>",
				pkg.Types.Name(), name),
		})
	}
	for _, pkg := range e.pkgs {
		if pkg.Types == nil || !isInternalPath(pkg.Path) || open[pkg.Path] {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					name := d.Name.Name
					if recv := fn.Signature().Recv(); recv != nil {
						named, ok := deref(recv.Type()).(*types.Named)
						if !ok || aliased[named.Obj()] || satisfiesInterface(named, name, ifaces) {
							continue
						}
						name = named.Obj().Name() + "." + name
					}
					report(pkg, d.Name, name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							report(pkg, s.Name, s.Name.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								report(pkg, id, id.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// isInternalPath reports whether an import path lies under an internal/
// directory.
func isInternalPath(path string) bool {
	return strings.Contains(path+"/", "/internal/")
}

// originObject maps an instantiated generic function, method or field to
// its declaration, so a use through an instantiation counts for it.
func originObject(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exemptions indexes, by method name, every interface declared in the
// loaded packages or in the packages they import from outside the module
// (rand.Source, io.Reader, ...), plus error; and it collects the named
// types a package outside internal/ re-exports under an alias (type
// Client = cluster.RingClient), whose methods are that package's API.
func exemptions(pkgs []*Package) (map[string][]*types.Interface, map[*types.TypeName]bool) {
	ifaces := make(map[string][]*types.Interface)
	aliased := make(map[*types.TypeName]bool)
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				name := iface.Method(i).Name()
				ifaces[name] = append(ifaces[name], iface)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			add(tn.Type())
			if named, ok := deref(types.Unalias(tn.Type())).(*types.Named); ok && tn.IsAlias() && !isInternalPath(p.Path()) {
				aliased[named.Origin().Obj()] = true
			}
		}
		for _, imp := range p.Imports() {
			if !strings.HasPrefix(imp.Path()+"/", pkgs[0].ModPath+"/") {
				visit(imp)
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.Types != nil {
			visit(pkg.Types)
		}
	}
	return ifaces, aliased
}

// satisfiesInterface reports whether named (or a pointer to it) implements
// an indexed interface that has a method called method.
func satisfiesInterface(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, iface := range ifaces[method] {
		if types.Implements(named, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// openPackages returns the loaded packages that some module package left
// out of this run imports, directly or not: their exports may be used by
// code the run never saw. The import graph comes from a listing of the
// whole module, plus the fixture tree when a loaded package lies under
// testdata (which ./... never enters); a load that spanned the module and
// no fixture needs none. If the listing fails, every package is open.
func openPackages(pkgs []*Package) map[string]bool {
	open := make(map[string]bool)
	patterns := []string{pkgs[0].ModPath + "/..."}
	testdata := string(filepath.Separator) + "testdata" + string(filepath.Separator)
	for _, pkg := range pkgs {
		// The go command skips a testdata directory a pattern ends in,
		// so list the tree one level below it: testdata/src/...
		if i := strings.Index(pkg.Dir, testdata); i >= 0 {
			top, _, _ := strings.Cut(pkg.Dir[i+len(testdata):], string(filepath.Separator))
			patterns = append(patterns, filepath.Join(pkg.Dir[:i+len(testdata)], top, "..."))
		}
	}
	if pkgs[0].Whole && len(patterns) == 1 {
		return open
	}
	list, err := goList(pkgs[0].Dir, patterns...)
	if err != nil {
		for _, pkg := range pkgs {
			open[pkg.Path] = true
		}
		return open
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	imports := make(map[string][]string, len(list))
	var frontier []string
	for _, p := range list {
		imports[p.ImportPath] = p.Imports
		if !loaded[p.ImportPath] {
			frontier = append(frontier, p.Imports...)
		}
	}
	for len(frontier) > 0 {
		path := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if !open[path] {
			open[path] = true
			frontier = append(frontier, imports[path]...)
		}
	}
	return open
}
