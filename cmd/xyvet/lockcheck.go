package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// runLockcheck enforces the project's lock discipline:
//
//   - every mu.Lock()/mu.RLock() statement must be paired, in the same
//     statement list, with either an immediate `defer mu.Unlock()` or an
//     explicit unlock later in the list (conditional unlocks buried in
//     nested blocks leak the lock on the other paths);
//   - no channel send and no callback invocation (func-typed parameter
//     or field, or in-module interface method) may run while a lock is
//     held — both can block or re-enter and deadlock a long-running
//     monitor;
//   - functions named *Locked run with a caller-held lock by project
//     convention, so their whole body is checked the same way.
//
// It reads the critical sections the engine's summaries record, package
// variables' function literals included, and reports a site once per
// lock held there. The call of a go or defer statement runs later, but
// its arguments evaluate under the locks held at the statement.
func runLockcheck(e *engine) []Finding {
	var out []Finding
	for _, n := range append(e.nodes[:len(e.nodes):len(e.nodes)], e.varInits...) {
		if !n.pkg.Analyzed {
			continue
		}
		report := func(pos token.Pos, held []heldLock, what, why string) {
			for _, h := range held {
				under := fmt.Sprintf("%s (taken by %s.%s())", h.recv, h.recv, h.kind)
				if h.caller {
					under = fmt.Sprintf("a caller-held lock (callers of %s hold it per the *Locked convention)", n.decl.Name.Name)
				}
				out = append(out, Finding{Pos: pos, Rule: "lockcheck", Msg: what + " under " + under + "; " + why})
			}
		}
		for _, ev := range n.sum.events {
			if ev.unpaired {
				out = append(out, Finding{
					Pos:  ev.pos,
					Rule: "lockcheck",
					Msg: fmt.Sprintf("%s.%s() is not followed by `defer %s.%s()` or an unlock in the same statement list",
						ev.recv, ev.kind, ev.recv, unlockOf[ev.kind]),
				})
			}
		}
		for _, s := range n.sum.sends {
			report(s.pos, s.held, "channel send", "a full channel blocks the critical section")
		}
		for _, c := range n.sum.calls {
			switch {
			case c.kind == callDynamic && !e.localFuncs[n.pkg][c.callee]:
				report(c.pos, c.held, "call of function value "+c.name, "callbacks can block or re-enter and deadlock")
			case c.kind == callIface && inModule(n.pkg, c.callee):
				report(c.pos, c.held, "call of in-module interface method "+c.name, "callbacks can block or re-enter and deadlock")
			}
		}
	}
	return out
}

// localClosureVars collects variables that are, somewhere in the
// package, assigned a function literal: `f := func() {...}`. Invoking
// one under a lock stays within the author's control, unlike a
// parameter or field injected from outside.
func localClosureVars(pkg *Package) map[types.Object]bool {
	set := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if _, ok := ast.Unparen(rhs).(*ast.FuncLit); !ok {
			return
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			set[obj] = true
		} else if obj := pkg.Info.Uses[id]; obj != nil {
			set[obj] = true
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						record(x.Lhs[i], x.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) == len(x.Values) {
					for i := range x.Names {
						record(x.Names[i], x.Values[i])
					}
				}
			}
			return true
		})
	}
	return set
}

func isFuncValue(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}
