package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// engine is the interprocedural analysis state shared by the deep rules:
// a module-wide call graph over every loaded package (static calls
// resolved through go/types, interface calls bounded to the in-module
// implementations of the method) with one summary per declared function,
// propagated to a fixpoint (see summary.go). Per-function rules keep
// running per package; the engine rules read its summaries, and the
// call graph lets lockorder, deeplock, faultcover and connguard see
// through call boundaries.
type engine struct {
	modpath string
	fset    *token.FileSet
	pkgs    []*Package // all loaded, sorted by import path

	nodes []*funcNode // every declared function with a body, deterministic order
	byObj map[*types.Func]*funcNode
	// varInits holds, per package, the summary of its variables'
	// initializers (a node with no fn or decl; see summarizeVars).
	varInits []*funcNode

	// named lists the concrete (non-interface) named types of the loaded
	// packages — the candidate set for interface-call resolution.
	named []*types.Named

	// localFuncs, per package, holds variables bound to function literals:
	// calling one is not an external callback to lockcheck.
	localFuncs map[*Package]map[types.Object]bool

	netConn *types.Interface // resolved net.Conn, nil when never imported

	implMu    sync.Mutex
	implCache map[implKey][]*funcNode
}

type implKey struct {
	iface  *types.Interface
	method string
}

// funcNode is one declared function or method in the call graph.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	sum  summary
}

// name renders the node as pkg.Func or pkg.Type.Method for messages.
func (n *funcNode) name() string {
	pkg := n.fn.Pkg().Name()
	if recv := n.fn.Signature().Recv(); recv != nil {
		t := deref(recv.Type())
		if named, ok := t.(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + n.fn.Name()
		}
	}
	return pkg + "." + n.fn.Name()
}

// directive reports whether the function's doc comment carries the given
// //xyvet:<name> marker (e.g. faultentry, faultpoint).
func (n *funcNode) directive(name string) bool {
	if n.decl.Doc == nil {
		return false
	}
	for _, c := range n.decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "xyvet:"+name || strings.HasPrefix(text, "xyvet:"+name+" ") {
			return true
		}
	}
	return false
}

// buildEngine assembles the call graph and computes every function
// summary: a parallel local pass per function, then the global fixpoints.
func buildEngine(pkgs []*Package) *engine {
	e := &engine{
		fset:       pkgs[0].Fset,
		byObj:      make(map[*types.Func]*funcNode),
		localFuncs: make(map[*Package]map[types.Object]bool),
		implCache:  make(map[implKey][]*funcNode),
	}
	e.pkgs = append(e.pkgs, pkgs...)
	sort.Slice(e.pkgs, func(i, j int) bool { return e.pkgs[i].Path < e.pkgs[j].Path })
	if len(e.pkgs) > 0 {
		e.modpath = e.pkgs[0].ModPath
	}

	for _, pkg := range e.pkgs {
		if pkg.Types == nil {
			continue
		}
		e.localFuncs[pkg] = localClosureVars(pkg)
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{fn: fn, decl: fd, pkg: pkg}
				e.byObj[fn] = n
				e.nodes = append(e.nodes, n)
			}
		}
		// Candidate implementations for interface-call resolution: every
		// concrete named type of the loaded set.
		scope := pkg.Types.Scope()
		names := scope.Names()
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			e.named = append(e.named, named)
		}
	}
	sort.Slice(e.nodes, func(i, j int) bool { return e.posLess(e.nodes[i].decl.Pos(), e.nodes[j].decl.Pos()) })
	e.netConn = resolveNetConn(e.pkgs)

	// Local summary pass, one function at a time across workers.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(e.nodes) {
		workers = len(e.nodes)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan *funcNode)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range next {
				summarize(e, n)
			}
		}()
	}
	for _, n := range e.nodes {
		next <- n
	}
	close(next)
	wg.Wait()

	for _, pkg := range e.pkgs {
		if pkg.Types != nil {
			e.varInits = append(e.varInits, summarizeVars(e, pkg))
		}
	}
	e.fixpoint()
	return e
}

// posLess orders positions by (filename, offset). Raw token.Pos values
// are scheduling-dependent — parallel parsing interleaves fset.AddFile —
// so every cross-file ordering that feeds deterministic output (node
// order, hence lock-graph node ids and witness selection) resolves
// through the FileSet instead.
func (e *engine) posLess(a, b token.Pos) bool {
	pa, pb := e.fset.Position(a), e.fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// implementers resolves an interface method call to the concrete
// in-module methods that can receive it: every loaded named type whose
// method set satisfies the interface contributes its method of that name.
func (e *engine) implementers(iface *types.Interface, method string) []*funcNode {
	key := implKey{iface, method}
	e.implMu.Lock()
	if cached, ok := e.implCache[key]; ok {
		e.implMu.Unlock()
		return cached
	}
	e.implMu.Unlock()

	var out []*funcNode
	for _, named := range e.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n, ok := e.byObj[fn]; ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return e.posLess(out[i].decl.Pos(), out[j].decl.Pos()) })

	e.implMu.Lock()
	e.implCache[key] = out
	e.implMu.Unlock()
	return out
}

// resolveNetConn finds the net.Conn interface anywhere in the loaded
// packages' import graphs, or nil when the module never touches net.
func resolveNetConn(pkgs []*Package) *types.Interface {
	seen := make(map[*types.Package]bool)
	var find func(p *types.Package) *types.Package
	find = func(p *types.Package) *types.Package {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == "net" {
			return p
		}
		for _, imp := range p.Imports() {
			if r := find(imp); r != nil {
				return r
			}
		}
		return nil
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		if netPkg := find(pkg.Types); netPkg != nil {
			if obj := netPkg.Scope().Lookup("Conn"); obj != nil {
				iface, _ := obj.Type().Underlying().(*types.Interface)
				return iface
			}
		}
	}
	return nil
}

// fixpoint propagates the local facts over the call graph until stable:
// may-block witnesses, fault-point consultation, conn-deadline coverage,
// and the transitive lock-acquisition sets that feed the lock-order
// graph. Every lattice is monotone (booleans and growing sets), so the
// iteration terminates even over recursion and call cycles.
func (e *engine) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, n := range e.nodes {
			s := &n.sum
			for _, c := range s.calls {
				if c.async {
					continue
				}
				for _, t := range c.targets {
					ts := &t.sum
					// may-block: only static concrete calls transmit the
					// fact; interface dispatch under a lock is lockcheck's
					// (and deeplock skips it to avoid double reports).
					if c.kind == callStatic && s.mayBlock == nil && ts.mayBlock != nil {
						s.mayBlock = &blockFact{pos: c.pos, why: "calls " + t.name(), next: t}
						changed = true
					}
					if c.kind == callStatic && !s.consults && ts.consults {
						s.consults = true
						changed = true
					}
					if c.kind == callStatic && !s.deadline && ts.deadline {
						s.deadline = true
						changed = true
					}
					// lock acquisitions flow through both static and
					// resolved interface calls.
					for _, obj := range ts.acquireOrder {
						if _, ok := s.acquires[obj]; !ok {
							if s.acquires == nil {
								s.acquires = make(map[types.Object]*acqPath)
							}
							inner := ts.acquires[obj]
							s.acquires[obj] = &acqPath{
								event: inner.event,
								owner: inner.owner,
								via:   append([]*funcNode{t}, inner.via...),
							}
							s.acquireOrder = append(s.acquireOrder, obj)
							changed = true
						}
					}
				}
			}
		}
	}
}
