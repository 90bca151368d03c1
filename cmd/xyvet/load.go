package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	Path    string // import path, e.g. xymon/internal/core
	Dir     string // absolute directory
	ModPath string // module path
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Analyzed marks packages the user asked to vet; dependency packages
	// are loaded (the interprocedural engine spans them) but findings are
	// only reported for analyzed ones.
	Analyzed bool
	Whole    bool // the patterns included ModPath/..., or ./... at the module root
	// TypeErrors collects type-checker diagnostics. Analysis still runs
	// with whatever information was recovered.
	TypeErrors []error
}

// listedPackage is one package as `go list -json` describes it.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string // export data file; only with -export
	GoFiles    []string
	Imports    []string
	DepOnly    bool // listed only as a dependency of the patterns
	Module     *struct {
		Path, Dir string
		Main      bool
	}
	Error *struct{ Err string }
}

// goList runs `go list -e -json` with args in dir and returns the listed
// packages in the order the go command prints them (with -deps, every
// package after its dependencies). Its warnings, such as a pattern that
// matched nothing, pass through to stderr.
func goList(dir string, args ...string) ([]listedPackage, error) {
	args = append([]string{"list", "-e", "-json=ImportPath,Dir,Export,GoFiles,Imports,DepOnly,Module,Error"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	os.Stderr.Write(stderr.Bytes())
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// load lists the packages matched by patterns, resolved in dir as the go
// command resolves them, with their dependencies. It parses and
// type-checks every main-module package among them from source, so the
// engine sees one types.Object per declaration across packages, and
// imports everything else from the export data the listing names. It
// returns the module packages sorted by import path, the requested ones
// marked Analyzed, and the module root.
//
// Each package is parsed in its own goroutine and checked once the
// module packages it imports, which -deps lists before it, are checked:
// go/types checks distinct packages concurrently as long as their
// imports are complete. The export-data importer is not safe for
// concurrent use and sits behind one mutex.
func load(dir string, patterns []string) ([]*Package, string, error) {
	list, err := goList(dir, append([]string{"-deps", "-export"}, patterns...)...)
	if err != nil {
		return nil, "", err
	}
	fset := token.NewFileSet()
	exports := make(map[string]string)
	var stdMu sync.Mutex
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})

	type loading struct {
		pkg   *Package
		files []string
		deps  map[string]*loading // in-module imports listed before it
		done  chan struct{}       // closed once pkg is checked
		err   error
	}
	var (
		root  string
		order []*loading
	)
	byPath := make(map[string]*loading)
	for _, p := range list {
		main := p.Module != nil && p.Module.Main
		switch {
		case p.Error != nil && len(p.GoFiles) == 0 && !p.DepOnly:
			return nil, "", errors.New(p.Error.Err)
		case !main:
			if !p.DepOnly {
				return nil, "", fmt.Errorf("%s is not a package of the main module", p.ImportPath)
			}
			// A missing dependency has no export data: importing it
			// fails as a type error.
			exports[p.ImportPath] = p.Export
		case len(p.GoFiles) > 0:
			root = p.Module.Dir
			l := &loading{
				pkg: &Package{
					Path:     p.ImportPath,
					Dir:      p.Dir,
					ModPath:  p.Module.Path,
					Fset:     fset,
					Analyzed: !p.DepOnly,
					Whole:    slices.Contains(patterns, p.Module.Path+"/...") || dir == p.Module.Dir && slices.Contains(patterns, "./..."),
				},
				files: p.GoFiles,
				deps:  make(map[string]*loading),
				done:  make(chan struct{}),
			}
			for _, imp := range p.Imports {
				if dep := byPath[imp]; dep != nil {
					l.deps[imp] = dep
				}
			}
			byPath[p.ImportPath] = l
			order = append(order, l)
		}
	}

	for _, l := range order {
		go func() {
			defer close(l.done)
			pkg := l.pkg
			for _, name := range l.files {
				f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					l.err = fmt.Errorf("loading %s: %w", pkg.Path, err)
					return
				}
				pkg.Files = append(pkg.Files, f)
			}
			for _, dep := range l.deps {
				<-dep.done
			}
			check(pkg, importerFunc(func(path string) (*types.Package, error) {
				if dep := l.deps[path]; dep != nil {
					if dep.err != nil {
						return nil, dep.err
					}
					return dep.pkg.Types, nil
				}
				stdMu.Lock()
				defer stdMu.Unlock()
				return std.Import(path)
			}))
		}()
	}

	pkgs := make([]*Package, 0, len(order))
	for _, l := range order {
		<-l.done
		if l.err != nil && err == nil {
			err = l.err
		}
		pkgs = append(pkgs, l.pkg)
	}
	if err != nil {
		return nil, "", err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, root, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks one parsed package whose module imports are checked.
func check(pkg *Package, imp types.Importer) {
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkg.Path, pkg.Fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
}

// relPath renders an absolute filename relative to base when possible.
func relPath(base, name string) string {
	if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
