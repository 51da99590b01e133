package analysis

// callgraph.go builds the module-wide call graph that upgrades the
// framework from per-function AST walking to interprocedural analysis.
// The graph is deliberately conservative and cheap:
//
//   - Static calls (package functions, concrete methods) resolve to
//     exactly the declared body.
//   - Interface method calls resolve to every module-local concrete
//     type whose method set satisfies the interface (method-set
//     dispatch; the usual sound over-approximation).
//   - Calls through function-typed variables, fields, and parameters
//     are recorded as dynamic and not traversed — a documented
//     soundness gap (e.g. the durable.Journal replication sink), kept
//     because chasing function values without SSA yields more noise
//     than signal.
//   - Function literals are not independent nodes: calls inside a
//     literal are attributed to the enclosing declared function, since
//     that is where they lexically execute. The two exceptions are
//     `go func(){…}` bodies (excluded from the enclosing function's
//     synchronous call list and recorded as GoSites instead) and
//     deferred literals (included, flagged Deferred).
//
// Lock-set analysis (lockset.go) and the interprocedural analyzers
// (lockorder, heldcall, goroleak) are all built on this.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallSite is one call (or unbuffered-send pseudo-call) inside a
// declared function, in source order.
type CallSite struct {
	Caller *FuncNode
	// Call is the AST call expression; nil for a send.
	Call *ast.CallExpr
	Pos  token.Pos
	// Callee is the resolved function object when the callee is known
	// (static and interface calls), even when its body is outside the
	// analyzed packages. Nil for dynamic calls and sends.
	Callee *types.Func
	// Recv is the receiver expression for method calls (sel.X), used by
	// the lock-set layer to identify which mutex a Lock call is on.
	Recv ast.Expr
	// Targets are the module-local bodies this call may enter: the
	// declared body of a static call, every module-local
	// implementation of an interface method. Empty for calls through
	// function values, which are not traversed.
	Targets []*FuncNode
	// Async marks sites lexically inside a `go` statement launched by
	// this function: they do not run on the caller's stack and are
	// skipped by synchronous dataflow (lock regions, Reach).
	Async bool
	// Deferred marks sites inside a defer statement (directly or in a
	// deferred literal); they run at function exit.
	Deferred bool
	// SendUnbuffered marks the pseudo-site of a send statement on a
	// channel locally provable unbuffered (the only sends recorded);
	// Call and Callee are nil.
	SendUnbuffered bool
}

// GoSite is one `go` statement in a declared function.
type GoSite struct {
	Stmt *ast.GoStmt
	// Lit is the spawned closure for `go func(){…}()`; nil when the go
	// statement calls a named function or method.
	Lit *ast.FuncLit
	// Targets are the module-local bodies the spawned call may enter
	// (for `go fn()` / `go x.m()` forms). Empty with Lit == nil means
	// the spawn target is dynamic and cannot be inspected.
	Targets []*FuncNode
}

// FuncNode is a declared function or method with its outgoing edges.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists synchronous-and-deferred call sites plus unbuffered
	// send pseudo-sites, in source order. Sites inside `go` closures
	// carry Async and are excluded from synchronous traversals.
	Calls []*CallSite
	// Gos lists the function's `go` statements.
	Gos []*GoSite

	locks *funcLocks // computed lazily by lockset.go
}

// Name renders a stable display name: "pkg.Func" or "pkg.Type.Method".
func (n *FuncNode) Name() string {
	pkg := ""
	if p := n.Obj.Pkg(); p != nil {
		pkg = p.Name() + "."
	}
	if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return pkg + named.Obj().Name() + "." + n.Obj.Name()
		}
	}
	return pkg + n.Obj.Name()
}

// Program is the module-wide interprocedural view over one analysis
// run's packages. It is built once per run (when any selected analyzer
// sets NeedsProgram) and shared read-only by every pass; the driver is
// single-threaded, so lazy memoization needs no locking.
type Program struct {
	Pkgs []*Package
	// Nodes holds every declared function with a body, sorted by
	// position for deterministic iteration.
	Nodes []*FuncNode

	funcs map[*types.Func]*FuncNode
	named []*types.Named // module-local named types, for interface dispatch
	impls map[implKey][]*FuncNode
	reach map[string]map[*FuncNode]*Reach
	cache map[string]any
}

type implKey struct {
	iface  *types.Interface
	method string
}

// FuncFor returns the node for a resolved function object, or nil when
// the function has no analyzed body (stdlib, interface methods).
func (p *Program) FuncFor(obj *types.Func) *FuncNode { return p.funcs[obj] }

// Cache memoizes an analyzer-computed, program-wide result under key.
// Analyzers use it so whole-program answers (the lock-order graph, the
// goroutine-termination summary) are computed once, not once per pass.
func (p *Program) Cache(key string, build func() any) any {
	if v, ok := p.cache[key]; ok {
		return v
	}
	v := build()
	p.cache[key] = v
	return v
}

// BuildProgram constructs the call graph over pkgs.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:  pkgs,
		funcs: make(map[*types.Func]*FuncNode),
		impls: make(map[implKey][]*FuncNode),
		reach: make(map[string]map[*FuncNode]*Reach),
		cache: make(map[string]any),
	}
	// Pass 1: a node per declared function with a body, plus the named
	// types needed for interface dispatch.
	for _, pkg := range pkgs {
		if pkg.Types != nil {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok {
						p.named = append(p.named, named)
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				p.funcs[obj] = node
				p.Nodes = append(p.Nodes, node)
			}
		}
	}
	sort.Slice(p.named, func(i, j int) bool { return p.named[i].Obj().Pos() < p.named[j].Obj().Pos() })
	sort.Slice(p.Nodes, func(i, j int) bool { return p.Nodes[i].Obj.Pos() < p.Nodes[j].Obj.Pos() })
	// Pass 2: walk bodies and resolve call sites.
	for _, node := range p.Nodes {
		w := &walker{p: p, node: node, unbuffered: unbufferedChans(node)}
		w.walkStmts(node.Decl.Body.List, false, false)
	}
	return p
}

// unbufferedChans collects local variables provably bound to unbuffered
// channels (`ch := make(chan T)` or cap 0) within one function body.
func unbufferedChans(node *FuncNode) map[types.Object]bool {
	out := map[types.Object]bool{}
	info := node.Pkg.TypesInfo
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fun, ok := unparen(call.Fun).(*ast.Ident)
			if !ok || fun.Name != "make" || len(call.Args) == 0 {
				continue
			}
			if _, ok := info.Types[call.Args[0]].Type.Underlying().(*types.Chan); !ok {
				continue
			}
			unbuf := len(call.Args) == 1
			if len(call.Args) == 2 {
				if tv, ok := info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
					unbuf = true
				}
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && unbuf {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// walker attributes the calls in one declared function's body (and its
// non-go function literals) to that function's node.
type walker struct {
	p          *Program
	node       *FuncNode
	unbuffered map[types.Object]bool
}

func (w *walker) walkStmts(stmts []ast.Stmt, async, deferred bool) {
	for _, s := range stmts {
		w.walkNode(s, async, deferred)
	}
}

// walkNode descends n, recording call sites. GoStmt subtrees are
// re-walked with async set; DeferStmt subtrees with deferred set.
func (w *walker) walkNode(n ast.Node, async, deferred bool) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.GoStmt:
		site := &GoSite{Stmt: n}
		if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
			site.Lit = lit
		} else if callee := w.calleeOf(n.Call); callee != nil {
			site.Targets = w.targetsOf(n.Call, callee)
		}
		w.node.Gos = append(w.node.Gos, site)
		// The spawned call itself and everything inside the spawned
		// closure is asynchronous relative to this function.
		w.walkNode(n.Call, true, deferred)
		return
	case *ast.DeferStmt:
		w.walkNode(n.Call, async, true)
		return
	case *ast.FuncLit:
		// A literal reached here was neither immediately invoked nor
		// deferred nor go'd: it escapes (stored in a variable or field,
		// passed as a callback, returned) and runs at some later time
		// on some other stack. Its sites are recorded Async so the
		// synchronous analyses (lock regions, Reach) skip them — the
		// registry release-closure and expvar callback patterns.
		w.walkStmts(n.Body.List, true, deferred)
		return
	case *ast.SendStmt:
		w.walkNode(n.Chan, async, deferred)
		w.walkNode(n.Value, async, deferred)
		if id, ok := unparen(n.Chan).(*ast.Ident); ok {
			obj := w.node.Pkg.TypesInfo.Uses[id]
			if obj == nil {
				obj = w.node.Pkg.TypesInfo.Defs[id]
			}
			if obj != nil && w.unbuffered[obj] {
				w.node.Calls = append(w.node.Calls, &CallSite{
					Caller: w.node, Pos: n.Pos(),
					Async: async, Deferred: deferred, SendUnbuffered: true,
				})
			}
		}
		return
	case *ast.CallExpr:
		w.recordCall(n, async, deferred)
		// An immediately-invoked literal runs inline on this stack.
		if lit, ok := unparen(n.Fun).(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, async, deferred)
		} else {
			w.walkNode(n.Fun, async, deferred)
		}
		// Arguments may contain calls and (escaping) literals.
		for _, a := range n.Args {
			w.walkNode(a, async, deferred)
		}
		return
	}
	// Generic descent for every other node kind.
	var children []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		if c != nil {
			children = append(children, c)
		}
		return false
	})
	for _, c := range children {
		w.walkNode(c, async, deferred)
	}
}

// calleeOf resolves the called function object, or nil for dynamic
// calls, conversions, and builtins.
func (w *walker) calleeOf(call *ast.CallExpr) *types.Func {
	info := w.node.Pkg.TypesInfo
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil // func-typed field
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // qualified pkg.Func
		}
	case *ast.IndexExpr: // generic instantiation f[T](…)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f
			}
		}
	}
	return nil
}

// targetsOf resolves the module-local bodies a call to callee may
// enter: the declared body for static calls, every satisfying concrete
// method for interface calls.
func (w *walker) targetsOf(call *ast.CallExpr, callee *types.Func) []*FuncNode {
	sig, ok := callee.Type().(*types.Signature)
	if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			return w.p.implementers(iface, callee)
		}
	}
	if n := w.p.funcs[callee]; n != nil {
		return []*FuncNode{n}
	}
	return nil
}

func (w *walker) recordCall(call *ast.CallExpr, async, deferred bool) {
	info := w.node.Pkg.TypesInfo
	// Skip type conversions outright.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	site := &CallSite{Caller: w.node, Call: call, Pos: call.Pos(), Async: async, Deferred: deferred}
	fun := unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		site.Recv = sel.X
	}
	callee := w.calleeOf(call)
	if callee == nil {
		switch f := fun.(type) {
		case *ast.FuncLit:
			// Immediately-invoked literal: its body is walked inline;
			// no separate site needed.
			return
		case *ast.Ident:
			if _, ok := info.Uses[f].(*types.Builtin); ok {
				return
			}
		}
		w.node.Calls = append(w.node.Calls, site)
		return
	}
	site.Callee = callee
	site.Targets = w.targetsOf(call, callee)
	w.node.Calls = append(w.node.Calls, site)
}

// implementers returns the analyzed bodies of method m on every
// module-local named type whose method set satisfies iface.
func (p *Program) implementers(iface *types.Interface, m *types.Func) []*FuncNode {
	key := implKey{iface: iface, method: m.Name()}
	if out, ok := p.impls[key]; ok {
		return out
	}
	var out []*FuncNode
	for _, named := range p.named {
		if types.IsInterface(named.Underlying()) || named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		if f, ok := obj.(*types.Func); ok {
			if node := p.funcs[f]; node != nil {
				out = append(out, node)
			}
		}
	}
	p.impls[key] = out
	return out
}

// Reach is the memoized answer to "does fn, on its own stack, reach a
// call site matching some primitive predicate?"
type Reach struct {
	// Pos is the first-step witness inside the queried function: the
	// call site (or send) through which the primitive is reached.
	Pos token.Pos
	// Desc describes the primitive reached.
	Desc string
	// Path is the call chain, queried function first.
	Path []string
}

// ReachVia computes, memoized under key, whether fn transitively
// reaches a call site satisfying primitive, traversing only
// synchronous module-local edges (Async sites are skipped; dynamic
// sites cannot be traversed and match only via the predicate itself).
// Recursion is cut conservatively: a cycle contributes nothing.
func (p *Program) ReachVia(key string, fn *FuncNode, primitive func(*CallSite) (string, bool)) *Reach {
	memo := p.reach[key]
	if memo == nil {
		memo = make(map[*FuncNode]*Reach)
		p.reach[key] = memo
	}
	var visit func(n *FuncNode, visiting map[*FuncNode]bool) *Reach
	visit = func(n *FuncNode, visiting map[*FuncNode]bool) *Reach {
		if r, ok := memo[n]; ok {
			return r
		}
		if visiting[n] {
			return nil
		}
		visiting[n] = true
		defer delete(visiting, n)
		var result *Reach
		for _, cs := range n.Calls {
			if cs.Async {
				continue
			}
			if desc, ok := primitive(cs); ok {
				result = &Reach{Pos: cs.Pos, Desc: desc, Path: []string{n.Name(), desc}}
				break
			}
			for _, t := range cs.Targets {
				if r := visit(t, visiting); r != nil {
					result = &Reach{Pos: cs.Pos, Desc: r.Desc, Path: append([]string{n.Name()}, r.Path...)}
					break
				}
			}
			if result != nil {
				break
			}
		}
		// Only memoize fully-explored results: a nil found while n is on
		// the recursion stack elsewhere could be a cycle artifact.
		if len(visiting) == 1 || result != nil {
			memo[n] = result
		}
		return result
	}
	return visit(fn, map[*FuncNode]bool{})
}

// namedOf unwraps pointers to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
