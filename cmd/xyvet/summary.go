package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// summary is the per-function fact sheet the engine rules consume. The
// local fields come from one lexical walk of the body (summarize); the
// fixpoint fields are propagated over the call graph by engine.fixpoint.
type summary struct {
	// events are the lock acquisitions of the body, each with the set of
	// locks already held at that point (the critical sections walkList
	// finds), unpaired acquisitions included.
	events []lockEvent
	// sends are the body's channel sends with the locks held at each.
	sends []sendSite
	// calls are the body's call sites with their held-lock context.
	calls []callInfo
	// rawIO are direct net.Conn / *os.File / os.Rename operations.
	rawIO []ioSite

	// consults: the body consults a fault point (faults.Injector
	// Fire/Check, a wal.Hook invocation) or carries //xyvet:faultpoint;
	// extended transitively by the fixpoint.
	consults bool
	// entry: a fault-coverage root — an exported function of one of the
	// pipeline packages, or //xyvet:faultentry.
	entry bool
	// mayBlock is a witness that the body can definitely block while
	// running synchronously: a channel send/receive, a select with no
	// default, or a WaitGroup/Cond wait; extended through static calls by
	// the fixpoint. Plug points (callbacks, interface methods) are not
	// witnesses — lockcheck flags those where a lock is held.
	mayBlock *blockFact
	// deadline: the body sets a conn deadline; extended transitively.
	deadline bool
	// deadlineCalls are the positions where a deadline is set directly or
	// a (possibly transitively) deadline-setting function is called —
	// connguard's interprocedural guard points.
	deadlineCalls []token.Pos

	// acquires maps every lock this function can take, directly or down
	// its call chain, to a witness path; acquireOrder keeps insertion
	// order for deterministic propagation.
	acquires     map[types.Object]*acqPath
	acquireOrder []types.Object
}

// lockEvent is one lock acquisition with its held-at-acquisition context.
type lockEvent struct {
	heldLock            // the lock taken; pos is its Lock statement
	held     []heldLock // the locks already held there
	async    bool       // inside a func literal / go / defer body
	unpaired bool       // no unlock pairs it in its statement list
}

// heldLock is one lock known held at a program point.
type heldLock struct {
	obj     types.Object // mutex identity (field or var object); nil when unresolvable or caller-held
	display string       // e.g. "reporter.Reporter.mu"
	recv    string       // receiver expression text, e.g. "r.mu"
	kind    string       // Lock or RLock
	pos     token.Pos
	caller  bool // held by the caller per the *Locked naming convention
}

// sendSite is one channel send with the locks held at it.
type sendSite struct {
	pos  token.Pos
	held []heldLock
}

type callKind int

const (
	callStatic  callKind = iota // resolved concrete function or method
	callIface                   // interface method, targets = in-module implementations
	callDynamic                 // func value / callback; no targets
)

// callInfo is one call site with its context.
type callInfo struct {
	pos     token.Pos
	kind    callKind
	name    string       // callee rendering for messages
	callee  types.Object // the function, func-typed var or field, or interface method called
	targets []*funcNode
	held    []heldLock
	async   bool
}

// ioSite is one raw I/O operation (faultcover's subject matter).
type ioSite struct {
	pos  token.Pos
	what string // "net.Conn.Read", "os.File.Write", "os.Rename", "net.Dial"
}

// blockFact is a may-block witness: either a direct blocking operation
// (next == nil) or a call into a function that may block.
type blockFact struct {
	pos  token.Pos
	why  string
	next *funcNode
}

// acqPath is a witness that a function (transitively) acquires a lock:
// the acquisition event, the function whose body contains it, and the
// call chain from the summarized function down to the owner.
type acqPath struct {
	event *lockEvent
	owner *funcNode
	via   []*funcNode
}

// entryPackages are the pipeline packages whose exported functions are
// faultcover roots; everything reachable from them must flow through an
// internal/faults point or a registered wrapper.
var entryPackages = []string{
	"internal/crawler",
	"internal/cluster",
	"internal/wal",
	"internal/warehouse",
	"internal/reporter",
	"internal/stream",
}

// summarize runs the local pass over one function body.
func summarize(e *engine, n *funcNode) {
	w := &sumWalker{e: e, n: n, pkg: n.pkg}
	s := &n.sum

	if n.pkg.Path == e.modpath+"/internal/faults" || n.directive("faultpoint") {
		s.consults = true
	}
	if n.directive("faultentry") {
		s.entry = true
	} else if ast.IsExported(n.decl.Name.Name) {
		for _, ep := range entryPackages {
			if n.pkg.Path == e.modpath+"/"+ep {
				s.entry = true
				break
			}
		}
	}

	var held []heldLock
	if strings.HasSuffix(n.decl.Name.Name, "Locked") {
		held = []heldLock{{
			display: "a caller-held lock (the *Locked convention)",
			recv:    "<caller>",
			pos:     n.decl.Pos(),
			caller:  true,
		}}
	}
	w.walkList(n.decl.Body.List, held, false)

	// Record every lock the body itself takes synchronously; the fixpoint
	// adds the ones taken down the call chain.
	for i := range s.events {
		ev := &s.events[i]
		if ev.async || ev.obj == nil {
			continue
		}
		if _, ok := s.acquires[ev.obj]; !ok {
			if s.acquires == nil {
				s.acquires = make(map[types.Object]*acqPath)
			}
			s.acquires[ev.obj] = &acqPath{event: ev, owner: n}
			s.acquireOrder = append(s.acquireOrder, ev.obj)
		}
	}
}

// summarizeVars walks the initializers of a package's variables, whose
// function literals have bodies too. Only lockcheck reads the result.
func summarizeVars(e *engine, pkg *Package) *funcNode {
	n := &funcNode{pkg: pkg}
	w := &sumWalker{e: e, n: n, pkg: pkg}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				w.walkStmt(&ast.DeclStmt{Decl: gd}, nil, false)
			}
		}
	}
	return n
}

// sumWalker walks one function body tracking the held-lock context.
type sumWalker struct {
	e   *engine
	n   *funcNode
	pkg *Package
}

// walkList walks one statement list. A lock statement paired, in the same
// list, with an immediate deferred unlock holds its lock to the end of the
// list; one paired with an explicit unlock holds it to the unlock. Each
// critical section is found in the whole list, so one may end after a
// later one began (hand-over-hand locking).
func (w *sumWalker) walkList(list []ast.Stmt, held []heldLock, async bool) {
	type section struct {
		lk  heldLock
		end int // the lock is held up to list[end]
	}
	var secs []section
	for i, stmt := range list {
		now := held[:len(held):len(held)]
		for _, sec := range secs {
			if i < sec.end {
				now = append(now, sec.lk)
			}
		}
		lk, ok := w.lockAcquire(stmt)
		if !ok {
			w.walkStmt(stmt, now, async)
			continue
		}
		end := w.findRegion(list, i, lk)
		w.n.sum.events = append(w.n.sum.events, lockEvent{
			heldLock: lk, held: snapshotHeld(now), async: async, unpaired: end < 0,
		})
		if end >= 0 {
			secs = append(secs, section{lk, end})
		}
	}
}

// lockAcquire recognises `recv.Lock()` / `recv.RLock()` statements on
// sync mutexes and resolves the mutex identity to a types.Object — the
// struct field or variable, so two acquisition sites of the same field
// are the same lock class no matter the instance.
func (w *sumWalker) lockAcquire(stmt ast.Stmt) (heldLock, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return heldLock{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return heldLock{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, false
	}
	kind := sel.Sel.Name
	if kind != "Lock" && kind != "RLock" {
		return heldLock{}, false
	}
	if !w.isSyncMethod(sel) {
		return heldLock{}, false
	}
	obj, display := w.resolveMutex(sel)
	return heldLock{obj: obj, display: display, recv: types.ExprString(sel.X), kind: kind, pos: stmt.Pos()}, true
}

// isSyncMethod reports whether the selected method is declared by the
// sync package (sync.Mutex, sync.RWMutex, sync.Locker — including
// promoted embeds). Without type information it falls back to a receiver
// naming heuristic so partially checked packages still get coverage.
func (w *sumWalker) isSyncMethod(sel *ast.SelectorExpr) bool {
	if s, ok := w.pkg.Info.Selections[sel]; ok {
		obj := s.Obj()
		return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
	}
	if t := w.pkg.Info.Types[sel.X].Type; t != nil {
		return typeIs(t, "sync.Mutex", "sync.RWMutex", "sync.Locker")
	}
	name := types.ExprString(sel.X)
	for _, suffix := range []string{"mu", "Mu", "mutex", "Mutex"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// resolveMutex maps the receiver of a Lock call to the identity object
// of the mutex: the struct field var for s.mu.Lock() (or an embedded
// sync.Mutex behind s.Lock()), the variable for mu.Lock(). Returns nil
// when no stable object exists (the event still participates in held
// tracking by receiver text).
func (w *sumWalker) resolveMutex(sel *ast.SelectorExpr) (types.Object, string) {
	info := w.pkg.Info
	// s.mu.Lock(): the mutex expr is itself a selector; its Sel resolves
	// to the field (or package-level var of another package).
	if mx, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if obj := info.Uses[mx.Sel]; obj != nil {
			if v, ok := obj.(*types.Var); ok {
				return v, w.displayFor(v, mx)
			}
		}
	}
	// mu.Lock() on a local or package-level var.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			if v, ok := obj.(*types.Var); ok {
				return v, w.displayFor(v, nil)
			}
		}
	}
	// s.Lock() through an embedded sync.Mutex: the selection's index path
	// names the embedded field.
	if s, ok := info.Selections[sel]; ok && len(s.Index()) > 1 {
		t := deref(s.Recv())
		idx := s.Index()
		var field *types.Var
		for _, fi := range idx[:len(idx)-1] {
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				field = nil
				break
			}
			field = st.Field(fi)
			t = deref(field.Type())
		}
		if field != nil {
			return field, w.displayFor(field, nil)
		}
	}
	return nil, types.ExprString(sel.X)
}

// displayFor renders a lock object for messages: pkg.Type.field for
// struct fields (using the static receiver type when available),
// pkg.name for package-level vars, plain name for locals.
func (w *sumWalker) displayFor(v *types.Var, selExpr *ast.SelectorExpr) string {
	if v.IsField() {
		owner := ""
		if selExpr != nil {
			if t := w.pkg.Info.Types[selExpr.X].Type; t != nil {
				if named, ok := deref(t).(*types.Named); ok {
					owner = named.Obj().Pkg().Name() + "." + named.Obj().Name()
				}
			}
		}
		if owner == "" && v.Pkg() != nil {
			owner = v.Pkg().Name()
		}
		return owner + "." + v.Name()
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// unlockOf names the method that releases each kind of lock.
var unlockOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// findRegion locates the end of the critical section opened at list[i]:
// the end of the list for an immediate `defer recv.Unlock()`, or an
// explicit unlock later in the list. Returns -1 when unpaired.
func (w *sumWalker) findRegion(list []ast.Stmt, i int, lk heldLock) int {
	unlock := unlockOf[lk.kind]
	for j := i + 1; j < len(list); j++ {
		switch s := list[j].(type) {
		case *ast.DeferStmt:
			if j == i+1 && w.isMutexCall(s.Call, lk.recv, unlock) {
				return len(list)
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && w.isMutexCall(call, lk.recv, unlock) {
				return j
			}
		}
	}
	return -1
}

func (w *sumWalker) isMutexCall(call *ast.CallExpr, recv, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return w.isSyncMethod(sel) && types.ExprString(sel.X) == recv
}

// walkStmt dispatches one statement, keeping the held context for nested
// blocks and recording block/call/IO facts. Func literals and go/defer
// bodies run outside the lexical critical section: they restart with an
// empty held set and are marked async.
func (w *sumWalker) walkStmt(stmt ast.Stmt, held []heldLock, async bool) {
	switch x := stmt.(type) {
	case nil:
	case *ast.BlockStmt:
		w.walkList(x.List, held, async)
	case *ast.IfStmt:
		w.walkStmt(x.Init, held, async)
		w.walkExpr(x.Cond, held, async)
		w.walkList(x.Body.List, held, async)
		w.walkStmt(x.Else, held, async)
	case *ast.ForStmt:
		w.walkStmt(x.Init, held, async)
		w.walkExpr(x.Cond, held, async)
		w.walkStmt(x.Post, held, async)
		w.walkList(x.Body.List, held, async)
	case *ast.RangeStmt:
		w.walkExpr(x.X, held, async)
		w.walkList(x.Body.List, held, async)
	case *ast.SwitchStmt:
		w.walkStmt(x.Init, held, async)
		w.walkExpr(x.Tag, held, async)
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.walkExpr(e, held, async)
				}
				w.walkList(cc.Body, held, async)
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(x.Init, held, async)
		w.walkStmt(x.Assign, held, async)
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkList(cc.Body, held, async)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm == nil {
					hasDefault = true
				}
			}
		}
		if !hasDefault && !async {
			w.block(x.Pos(), "select with no default")
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				// The comm clause's channel operation belongs to the
				// select (already accounted above — a select with a
				// default never blocks), so its send/receive must not be
				// recorded as an unconditional block: walk it async.
				w.walkStmt(cc.Comm, held, true)
				w.walkList(cc.Body, held, async)
			}
		}
	case *ast.SendStmt:
		if !async {
			w.block(x.Pos(), "channel send")
		}
		w.n.sum.sends = append(w.n.sum.sends, sendSite{x.Pos(), snapshotHeld(held)})
		w.walkExpr(x.Chan, held, async)
		w.walkExpr(x.Value, held, async)
	case *ast.GoStmt:
		w.asyncCall(x.Call, held, async)
	case *ast.DeferStmt:
		w.asyncCall(x.Call, held, async)
	case *ast.ExprStmt:
		w.walkExpr(x.X, held, async)
	case *ast.AssignStmt:
		for _, e := range x.Lhs {
			w.walkExpr(e, held, async)
		}
		for _, e := range x.Rhs {
			w.walkExpr(e, held, async)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.walkExpr(e, held, async)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, held, async)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt, held, async)
	case *ast.IncDecStmt:
		w.walkExpr(x.X, held, async)
	}
}

// asyncCall handles the call of a go or defer statement: the callee runs
// outside the lexical critical section (async, no held locks), while the
// expression it is called on (s.get() in defer s.get().Close()) and its
// arguments evaluate here and now.
func (w *sumWalker) asyncCall(call *ast.CallExpr, held []heldLock, async bool) {
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.walkList(fl.Body.List, nil, true)
	} else {
		w.walkCall(call, nil, true)
		w.walkExpr(call.Fun, held, async)
	}
	for _, a := range call.Args {
		w.walkExpr(a, held, async)
	}
}

// walkExpr records the facts of one expression tree: calls (with held
// context), channel receives, raw I/O, fault consultation, deadlines.
func (w *sumWalker) walkExpr(expr ast.Expr, held []heldLock, async bool) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			// Its body runs outside any critical section around it:
			// async, with no lock held.
			w.walkList(x.Body.List, nil, true)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !async {
				w.block(x.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			w.walkCall(x, held, async)
		}
		return true
	})
}

// walkCall classifies one call site: records the callInfo with resolved
// targets, plus any blocking, consultation, deadline or raw-I/O fact the
// callee implies.
func (w *sumWalker) walkCall(call *ast.CallExpr, held []heldLock, async bool) {
	s := &w.n.sum
	info := w.pkg.Info
	pos := call.Pos()

	// Package-level functions: os.Rename and net dials are raw I/O.
	if name, ok := pkgFuncCall(w.pkg, call, "os"); ok {
		if name == "Rename" {
			s.rawIO = append(s.rawIO, ioSite{pos, "os.Rename"})
		}
		return
	}
	if name, ok := pkgFuncCall(w.pkg, call, "net"); ok {
		if name == "Dial" || name == "DialTimeout" {
			s.rawIO = append(s.rawIO, ioSite{pos, "net." + name})
		}
		return
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		switch o := obj.(type) {
		case *types.Func:
			w.record(call, callStatic, fun.Name, o, held, async)
			return
		case *types.Var:
			// Function-value call: an unresolvable plug point, but NOT a
			// may-block witness — lockcheck already flags callbacks invoked
			// inside a critical section, and treating every callback as
			// blocking would flood deeplock with clock and codec hooks that
			// never touch the scheduler.
			if isFuncValue(o.Type()) {
				w.record(call, callDynamic, fun.Name, o, held, async)
			}
			return
		}
	case *ast.SelectorExpr:
		if selInfo, ok := info.Selections[fun]; ok {
			switch selInfo.Kind() {
			case types.FieldVal:
				if isFuncValue(selInfo.Type()) {
					w.fieldFuncCall(call, fun, selInfo, held, async)
				}
				return
			case types.MethodVal:
				w.methodCall(call, fun, selInfo, held, async)
				return
			}
			return
		}
		// Package-qualified: pkg.Func or pkg.Var.
		switch o := info.Uses[fun.Sel].(type) {
		case *types.Func:
			w.record(call, callStatic, types.ExprString(fun), o, held, async)
		case *types.Var:
			if isFuncValue(o.Type()) {
				w.record(call, callDynamic, types.ExprString(fun), o, held, async)
			}
		}
	}
}

// fieldFuncCall handles x.f() where f is a func-typed field: a callback
// plug point unless the field's named type is a fault hook (wal.Hook),
// which counts as consulting a fault point instead.
func (w *sumWalker) fieldFuncCall(call *ast.CallExpr, fun *ast.SelectorExpr, selInfo *types.Selection, held []heldLock, async bool) {
	s := &w.n.sum
	if named, ok := selInfo.Type().(*types.Named); ok && w.isFaultHookType(named) {
		s.consults = true
	}
	w.record(call, callDynamic, types.ExprString(fun), selInfo.Obj(), held, async)
}

// methodCall handles x.m(): interface dispatch resolves to in-module
// implementations; concrete methods resolve statically. Fault-injector
// consultation, conn deadlines, conn/file raw I/O and known blocking
// methods (WaitGroup.Wait, Cond.Wait) are recognized here.
func (w *sumWalker) methodCall(call *ast.CallExpr, fun *ast.SelectorExpr, selInfo *types.Selection, held []heldLock, async bool) {
	s := &w.n.sum
	pos := call.Pos()
	mname := fun.Sel.Name
	fnObj, _ := selInfo.Obj().(*types.Func)
	recv := deref(selInfo.Recv())

	// faults.Injector consultation.
	if fnObj != nil && fnObj.Pkg() != nil && fnObj.Pkg().Path() == w.e.modpath+"/internal/faults" &&
		(mname == "Fire" || mname == "Check") {
		s.consults = true
	}

	// sync blocking waits.
	if fnObj != nil && fnObj.Pkg() != nil && fnObj.Pkg().Path() == "sync" && mname == "Wait" && !async {
		w.block(pos, types.ExprString(fun)+" (sync wait)")
	}

	// Conn facts: deadline coverage and raw reads/writes.
	recvType := w.pkg.Info.Types[fun.X].Type
	if w.e.netConn != nil && recvType != nil && implementsIface(recvType, w.e.netConn) {
		switch mname {
		case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
			s.deadline = true
			s.deadlineCalls = append(s.deadlineCalls, pos)
		case "Read", "Write":
			s.rawIO = append(s.rawIO, ioSite{pos, "net.Conn." + mname})
		}
	}
	// *os.File raw I/O.
	if typeIs(recvType, "os.File") {
		switch mname {
		case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Truncate":
			s.rawIO = append(s.rawIO, ioSite{pos, "os.File." + mname})
		}
	}

	if types.IsInterface(recv) {
		// Interface dispatch is a plug point (lockcheck flags it under a
		// lock, so it is not a may-block witness here); it still resolves
		// to the in-module method sets so lock acquisitions propagate
		// through it.
		var targets []*funcNode
		if iface, ok := recv.Underlying().(*types.Interface); ok {
			targets = w.e.implementers(iface, mname)
		}
		w.record(call, callIface, types.ExprString(fun), selInfo.Obj(), held, async)
		s.calls[len(s.calls)-1].targets = targets
		return
	}
	if fnObj != nil {
		w.record(call, callStatic, types.ExprString(fun), fnObj, held, async)
	}
}

// record appends one callInfo. A static callee outside the loaded
// packages has no target.
func (w *sumWalker) record(call *ast.CallExpr, kind callKind, name string, callee types.Object, held []heldLock, async bool) {
	ci := callInfo{pos: call.Pos(), kind: kind, name: name, callee: callee,
		held: snapshotHeld(held), async: async}
	if fn, ok := callee.(*types.Func); ok && kind == callStatic {
		if target := w.e.byObj[fn]; target != nil {
			ci.targets = []*funcNode{target}
		}
	}
	w.n.sum.calls = append(w.n.sum.calls, ci)
}

// block records the first direct may-block witness.
func (w *sumWalker) block(pos token.Pos, why string) {
	if w.n.sum.mayBlock == nil {
		w.n.sum.mayBlock = &blockFact{pos: pos, why: why}
	}
}

// isFaultHookType reports whether a named func type is a recognized
// fault hook — internal/wal.Hook, whose invocation marks the WAL's
// durability points.
func (w *sumWalker) isFaultHookType(named *types.Named) bool {
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == w.e.modpath+"/internal/wal" && obj.Name() == "Hook"
}

func implementsIface(t types.Type, iface *types.Interface) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

func snapshotHeld(held []heldLock) []heldLock {
	if len(held) == 0 {
		return nil
	}
	out := make([]heldLock, len(held))
	copy(out, held)
	return out
}
