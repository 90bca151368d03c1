package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos  token.Pos
	Rule string
	Msg  string
}

// Analyzer is one rule suite. Per-package rules set Run and are invoked
// once per analyzed package; engine rules set RunEngine and are invoked
// once over the module-wide call-graph engine. staleignore sets neither:
// analyzeAll reports it.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Package) []Finding
	RunEngine func(*engine) []Finding
}

// analyzers is the project suite, in reporting order.
var analyzers = []*Analyzer{
	{
		Name:      "lockcheck",
		Doc:       "locks without a paired unlock, and channel sends or callback invocations under a held lock",
		RunEngine: runLockcheck,
	},
	{
		Name:      "deeplock",
		Doc:       "interprocedural lockcheck: calls, while a lock is held, of functions that may block or send somewhere down their call chain",
		RunEngine: runDeeplock,
	},
	{
		Name:      "lockorder",
		Doc:       "cycles in the module-wide lock-acquisition order graph — potential deadlocks — with the full acquisition path",
		RunEngine: runLockorder,
	},
	{
		Name: "goleak",
		Doc:  "goroutines launched in library packages with no context, done channel or WaitGroup tie to their lifecycle",
		Run:  runGoleak,
	},
	{
		Name: "errdrop",
		Doc:  "discarded error results of in-module calls (use _ = f() to discard explicitly)",
		Run:  runErrdrop,
	},
	{
		Name: "nondeterm",
		Doc:  "global math/rand and time.Sleep in non-test code; both break reproducible runs",
		Run:  runNondeterm,
	},
	{
		Name:      "connguard",
		Doc:       "net.Conn Read/Write reachable with no deadline set earlier in the function or its callees; a silent peer blocks them forever",
		RunEngine: runConnguard,
	},
	{
		Name:      "faultcover",
		Doc:       "raw net.Conn/os.File/os.Rename I/O reachable from pipeline entry points without passing an internal/faults point or registered wrapper",
		RunEngine: runFaultcover,
	},
	{
		Name:      "atomicmix",
		Doc:       "fields accessed through sync/atomic somewhere but read or written plainly elsewhere (outside the owning constructor)",
		RunEngine: runAtomicmix,
	},
	{
		Name: "walfsync",
		Doc:  "os.Rename of a file created in the same function with no parent-directory sync after it; a crash can undo the install",
		Run:  runWalfsync,
	},
	{
		Name: "printcheck",
		Doc:  "fmt.Print*/log output in library packages; output must flow through the reporter",
		Run:  runPrintcheck,
	},
	{
		Name: "hashcache",
		Doc:  "direct hash/fnv constructors outside internal/xmldom; use the cached xmldom hashing primitives",
		Run:  runHashcache,
	},
	{
		Name: "rawxml",
		Doc:  "encoding/xml imports outside tests; the zero-copy ingest path must stay on the byte tokenizer",
		Run:  runRawxml,
	},
	{
		Name:      "testonly",
		Doc:       "exported identifiers of internal/ packages that no non-test file of the module references",
		RunEngine: runTestonly,
	},
	{
		Name: "staleignore",
		Doc:  "//xyvet:ignore entries that suppress no finding; only the baseline silences this rule",
	},
}

// ruleTiming accumulates per-rule wall time (cumulative across workers)
// plus the load and engine-build phases, for -v reporting.
type ruleTiming struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

func (t *ruleTiming) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.d == nil {
		t.d = make(map[string]time.Duration)
	}
	t.d[name] += d
	t.mu.Unlock()
}

func (t *ruleTiming) snapshot() []struct {
	Name string
	D    time.Duration
} {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]struct {
		Name string
		D    time.Duration
	}, 0, len(t.d))
	for n, d := range t.d {
		out = append(out, struct {
			Name string
			D    time.Duration
		}{n, d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].D > out[j].D })
	return out
}

// analyzeAll builds the interprocedural engine over every loaded package,
// fans the per-package analyzers out across GOMAXPROCS workers, runs the
// engine analyzers, drops findings landing outside the analyzed package
// set, applies //xyvet:ignore suppressions, reports each suppression
// that suppressed nothing (staleignore) and returns the findings sorted
// by position.
func analyzeAll(pkgs []*Package, timing *ruleTiming) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset

	t0 := time.Now()
	eng := buildEngine(pkgs)
	timing.add("(engine build)", time.Since(t0))

	var analyzed []*Package
	analyzedDir := make(map[string]bool)
	for _, p := range pkgs {
		if p.Analyzed {
			analyzed = append(analyzed, p)
			analyzedDir[p.Dir] = true
		}
	}

	// One task per (package, per-package analyzer) plus one per engine
	// analyzer, drained by a worker pool.
	type task func() []Finding
	var tasks []task
	for _, a := range analyzers {
		a := a
		if a.Run != nil {
			for _, p := range analyzed {
				p := p
				tasks = append(tasks, func() []Finding {
					t := time.Now()
					fs := a.Run(p)
					timing.add(a.Name, time.Since(t))
					for i := range fs {
						if fs[i].Rule == "" {
							fs[i].Rule = a.Name
						}
					}
					return fs
				})
			}
		}
		if a.RunEngine != nil {
			tasks = append(tasks, func() []Finding {
				t := time.Now()
				fs := a.RunEngine(eng)
				timing.add(a.Name, time.Since(t))
				for i := range fs {
					if fs[i].Rule == "" {
						fs[i].Rule = a.Name
					}
				}
				return fs
			})
		}
	}

	results := make([][]Finding, len(tasks))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = tasks[i]()
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()

	ignores := make(ignoreIndex)
	for _, p := range analyzed {
		collectIgnores(p, ignores)
	}
	var out []Finding
	for _, fs := range results {
		for _, f := range fs {
			pos := fset.Position(f.Pos)
			if !analyzedDir[dirOf(pos.Filename)] {
				continue
			}
			if ignores.suppress(pos, f.Rule) {
				continue
			}
			out = append(out, f)
		}
	}
	out = append(out, ignores.stale()...)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// dirOf is filepath.Dir without the import.
func dirOf(name string) string {
	if i := strings.LastIndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return name
}

// ignoreEntry is one rule named by a //xyvet:ignore comment.
type ignoreEntry struct {
	pos  token.Pos
	rule string
	used bool // it suppressed a finding
}

// ignoreIndex records //xyvet:ignore entries by file and line.
type ignoreIndex map[string]map[int][]*ignoreEntry

// collectIgnores scans every comment of the package for the suppression
// syntax `//xyvet:ignore rule[,rule...] [justification]` into idx.
func collectIgnores(pkg *Package, idx ignoreIndex) {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "xyvet:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = make(map[int][]*ignoreEntry)
				}
				for _, rule := range strings.Split(fields[0], ",") {
					idx[pos.Filename][pos.Line] = append(idx[pos.Filename][pos.Line], &ignoreEntry{pos: c.Pos(), rule: rule})
				}
			}
		}
	}
}

// suppress reports whether rule is ignored at pos, and marks the entries
// that ignore it: an ignore comment on the same line or on the line
// directly above covers it.
func (idx ignoreIndex) suppress(pos token.Position, rule string) bool {
	hit := false
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		for _, e := range idx[pos.Filename][l] {
			if e.rule == rule || e.rule == "all" {
				e.used, hit = true, true
			}
		}
	}
	return hit
}

// stale reports each entry that suppressed no finding. No ignore comment
// covers these findings, so only the baseline silences one.
func (idx ignoreIndex) stale() []Finding {
	var out []Finding
	for _, lines := range idx {
		for _, entries := range lines {
			for _, e := range entries {
				if !e.used {
					out = append(out, Finding{
						Pos:  e.pos,
						Rule: "staleignore",
						Msg:  fmt.Sprintf("//xyvet:ignore %s suppresses no finding; delete it", e.rule),
					})
				}
			}
		}
	}
	return out
}

// --- shared type helpers ---

// isMainPkg reports whether the package builds a command.
func isMainPkg(pkg *Package) bool {
	return pkg.Types != nil && pkg.Types.Name() == "main"
}

// inModule reports whether an object is declared inside this module.
func inModule(pkg *Package, obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkg.ModPath || strings.HasPrefix(p, pkg.ModPath+"/")
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// typeIs reports whether t (possibly behind a pointer) prints as one of
// the given fully qualified type names.
func typeIs(t types.Type, names ...string) bool {
	if t == nil {
		return false
	}
	s := deref(t).String()
	for _, n := range names {
		if s == n {
			return true
		}
	}
	return false
}

// pkgFuncCall reports whether call invokes a package-level function of
// the package with import path pkgPath, returning the function name.
func pkgFuncCall(pkg *Package, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// calleeObject resolves the object a call invokes: a declared function or
// method, a func-typed variable or field, or nil when unresolvable.
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		return pkg.Info.Uses[fun.Sel]
	}
	return nil
}
