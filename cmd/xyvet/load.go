package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
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
	// Imports lists the in-module import paths of the package's files.
	Imports []string
	// TypeErrors collects type-checker diagnostics. Analysis still runs
	// with whatever information was recovered.
	TypeErrors []error
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modpath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves package patterns to absolute directories.
// A pattern is a directory (./internal/core), or a subtree walk
// (./..., ./cmd/...). Walks skip hidden directories and testdata unless
// the pattern itself points into testdata (so fixture packages can be
// vetted explicitly).
func expandPatterns(root, cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, pat := range patterns {
		walk := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			walk = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		base = filepath.Clean(base)
		if rel, err := filepath.Rel(root, base); err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, fmt.Errorf("pattern %s is outside module %s", pat, root)
		}
		if !walk {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, fmt.Errorf("no Go files in %s", base)
			}
			continue
		}
		inTestdata := strings.Contains(base, string(filepath.Separator)+"testdata")
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if name == "testdata" && !inTestdata {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

// isSourceFile reports whether name is a non-test Go source file.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// loader parses and type-checks module packages, resolving in-module
// imports from source and everything else through the standard library's
// source importer — no toolchain export data or third-party loader needed.
//
// Loading is parallel: every package of the requested set plus its
// in-module dependency closure is parsed concurrently, then type-checked
// in dependency order across a GOMAXPROCS worker pool (go/types permits
// concurrent checking of distinct packages as long as their imports are
// complete). The standard-library source importer is not concurrency-safe
// and is serialized behind its own mutex; module-package checking and the
// analyzers fan out around it.
type loader struct {
	fset    *token.FileSet
	root    string
	modpath string

	stdMu sync.Mutex
	std   types.Importer

	mu   sync.Mutex
	pkgs map[string]*Package // by import path; nil entry = no buildable files
	errs map[string]error    // parse/read failures, surfaced at import time
}

func newLoader(root, modpath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		modpath: modpath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		errs:    make(map[string]error),
	}
}

// pathForDir maps an absolute module directory to its import path.
func (l *loader) pathForDir(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modpath, nil
	}
	return l.modpath + "/" + filepath.ToSlash(rel), nil
}

// dirForPath maps an in-module import path to its absolute directory.
func (l *loader) dirForPath(path string) string {
	if path == l.modpath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modpath+"/")))
}

func (l *loader) inModule(path string) bool {
	return path == l.modpath || strings.HasPrefix(path, l.modpath+"/")
}

// loadAll parses and type-checks the packages in the given directories
// and their in-module dependency closure, returning the requested
// packages (marked Analyzed) and the dependencies, sorted by import
// path. Directories already loaded by a previous call are reused.
func (l *loader) loadAll(dirs []string) ([]*Package, error) {
	want := make(map[string]bool, len(dirs))
	var paths []string
	for _, d := range dirs {
		p, err := l.pathForDir(filepath.Clean(d))
		if err != nil {
			return nil, err
		}
		if !want[p] {
			want[p] = true
			paths = append(paths, p)
		}
	}

	parsed, err := l.parseClosure(paths, want)
	if err != nil {
		return nil, err
	}
	l.checkParallel(parsed)

	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*Package
	for path, pkg := range l.pkgs {
		if pkg == nil {
			continue
		}
		if want[path] {
			pkg.Analyzed = true
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	// A requested directory with no buildable files is not an error (it
	// simply contributes nothing), matching the old per-dir loader; but a
	// requested directory that failed to read or parse is.
	for _, p := range paths {
		if err := l.errs[p]; err != nil {
			return out, err
		}
	}
	return out, nil
}

// parseClosure parses the requested import paths and, breadth-first,
// every in-module import reachable from them, fanning each wave out
// across goroutines. It returns the newly parsed packages (not yet
// type-checked).
func (l *loader) parseClosure(paths []string, requested map[string]bool) ([]*Package, error) {
	var (
		newPkgs []*Package
		pending []string
	)
	enqueued := make(map[string]bool)
	l.mu.Lock()
	for _, p := range paths {
		if _, done := l.pkgs[p]; !done && !enqueued[p] {
			enqueued[p] = true
			pending = append(pending, p)
		}
	}
	l.mu.Unlock()

	type result struct {
		path string
		pkg  *Package // nil: no buildable files
		err  error
	}
	for len(pending) > 0 {
		results := make([]result, len(pending))
		var wg sync.WaitGroup
		for i, path := range pending {
			wg.Add(1)
			go func(i int, path string) {
				defer wg.Done()
				pkg, err := l.parseDir(path)
				results[i] = result{path, pkg, err}
			}(i, path)
		}
		wg.Wait()

		pending = pending[:0]
		for _, r := range results {
			l.mu.Lock()
			if r.err != nil {
				l.pkgs[r.path] = nil
				l.errs[r.path] = r.err
				l.mu.Unlock()
				if requested[r.path] {
					return nil, fmt.Errorf("loading %s: %w", r.path, r.err)
				}
				continue
			}
			l.pkgs[r.path] = r.pkg
			l.mu.Unlock()
			if r.pkg == nil {
				continue
			}
			newPkgs = append(newPkgs, r.pkg)
			for _, imp := range r.pkg.Imports {
				l.mu.Lock()
				_, done := l.pkgs[imp]
				l.mu.Unlock()
				if !done && !enqueued[imp] {
					enqueued[imp] = true
					pending = append(pending, imp)
				}
			}
		}
		sort.Strings(pending)
	}
	sort.Slice(newPkgs, func(i, j int) bool { return newPkgs[i].Path < newPkgs[j].Path })
	return newPkgs, nil
}

// parseDir parses every non-test source file of one package directory.
func (l *loader) parseDir(path string) (*Package, error) {
	dir := l.dirForPath(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	impSet := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && l.inModule(p) {
				impSet[p] = true
			}
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	var imports []string
	for p := range impSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	return &Package{
		Path:    path,
		Dir:     dir,
		ModPath: l.modpath,
		Fset:    l.fset,
		Files:   files,
		Imports: imports,
	}, nil
}

// checkParallel type-checks the parsed packages in dependency order:
// Kahn's algorithm yields ready packages, a worker pool checks them
// concurrently, and completion unblocks dependents. Packages caught in
// an import cycle (which cannot build anyway) are checked last, in
// path order, with their unresolved imports surfacing as type errors.
func (l *loader) checkParallel(pkgs []*Package) {
	if len(pkgs) == 0 {
		return
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	inCycle := kahnLeftover(pkgs, byPath)
	cyclic := make(map[string]bool, len(inCycle))
	for _, p := range inCycle {
		cyclic[p] = true
	}

	indeg := make(map[string]int, len(pkgs))
	dependents := make(map[string][]string)
	schedulable := 0
	for _, p := range pkgs {
		if cyclic[p.Path] {
			continue
		}
		schedulable++
		for _, imp := range p.Imports {
			if _, isNew := byPath[imp]; isNew && !cyclic[imp] {
				indeg[p.Path]++
				dependents[imp] = append(dependents[imp], p.Path)
			}
		}
	}

	queue := make(chan string, len(pkgs))
	var ready []string
	for _, p := range pkgs {
		if !cyclic[p.Path] && indeg[p.Path] == 0 {
			ready = append(ready, p.Path)
		}
	}
	sort.Strings(ready)
	for _, p := range ready {
		queue <- p
	}
	if schedulable == 0 {
		close(queue)
	}

	var (
		mu      sync.Mutex
		checked int
		wg      sync.WaitGroup
	)
	finish := func(path string) {
		mu.Lock()
		checked++
		var unlocked []string
		for _, dep := range dependents[path] {
			indeg[dep]--
			if indeg[dep] == 0 {
				unlocked = append(unlocked, dep)
			}
		}
		done := checked == schedulable
		mu.Unlock()
		// The queue's buffer holds every package, so these sends cannot
		// block — but they stay outside the critical section regardless.
		for _, dep := range unlocked {
			queue <- dep
		}
		if done {
			close(queue)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range queue {
				l.check(byPath[path])
				finish(path)
			}
		}()
	}
	wg.Wait()

	// Every acyclic package is checked; cycle members (and their
	// downstream) get a serial pass whose unresolved imports report the
	// cycle as type errors — matching the old loader's behavior.
	for _, path := range inCycle {
		l.check(byPath[path])
	}
}

// kahnLeftover returns, in path order, the packages that topological
// sorting can never schedule — the members (and downstream) of import
// cycles within the new-package set.
func kahnLeftover(pkgs []*Package, byPath map[string]*Package) []string {
	indeg := make(map[string]int, len(pkgs))
	dependents := make(map[string][]string)
	for _, p := range pkgs {
		for _, imp := range p.Imports {
			if _, ok := byPath[imp]; ok {
				indeg[p.Path]++
				dependents[imp] = append(dependents[imp], p.Path)
			}
		}
	}
	var ready []string
	for _, p := range pkgs {
		if indeg[p.Path] == 0 {
			ready = append(ready, p.Path)
		}
	}
	scheduled := 0
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		scheduled++
		for _, dep := range dependents[path] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if scheduled == len(pkgs) {
		return nil
	}
	var left []string
	for _, p := range pkgs {
		if indeg[p.Path] > 0 {
			left = append(left, p.Path)
		}
	}
	sort.Strings(left)
	return left
}

// check type-checks one parsed package. Its in-module imports must
// already be checked (or be cycle members, which then error cleanly).
func (l *loader) check(pkg *Package) {
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: &pkgImporter{l: l, from: pkg.Path},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkg.Path, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
}

// pkgImporter resolves imports during one package's type-check:
// in-module paths from the loader's checked-package map, everything
// else through the shared (mutex-guarded) source importer.
type pkgImporter struct {
	l    *loader
	from string
}

func (pi *pkgImporter) Import(path string) (*types.Package, error) {
	l := pi.l
	if l.inModule(path) {
		l.mu.Lock()
		pkg, ok := l.pkgs[path]
		err := l.errs[path]
		l.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", path)
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// relPath renders an absolute filename relative to base when possible.
func relPath(base, name string) string {
	if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
