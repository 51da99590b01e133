package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// ObsPair enforces the span-balancing contract of the observability
// layer: every span begun with obs.StartSpan is ended on all return
// paths, otherwise traces report phantom unfinished work and the
// per-span timing data the experiment harness relies on goes missing.
//
// The check is a source-order approximation of the full control-flow
// question (computable without SSA): within one function body,
//
//   - a span discarded at the call site (`ctx, _ := obs.StartSpan`)
//     can never be ended and is always flagged;
//   - a span with a `defer sp.End()` (directly, or via a deferred
//     closure that ends it) is always fine;
//   - otherwise every `return` after the StartSpan must be preceded —
//     between the start and the return — by an End of that span,
//     either directly or by calling a local closure that ends it (a
//     loop-scoped `endIter()` that closes each iteration's span);
//   - passing the span to another function (`defer finishSpan(sp, …)`)
//     counts as an End when that same-package callee ends the
//     corresponding parameter; callees the analyzer cannot see into
//     (other packages, interface methods) are assumed to take over
//     responsibility;
//   - a span that escapes the function — stored into a struct field or
//     element, placed in a composite literal, returned, or sent on a
//     channel — is an ownership handoff, not a leak: whoever drains
//     the carrier ends it (the steal-result span-graft pattern, where
//     a worker's spans ride a result struct back to the origin node's
//     tracer).
//
// Function literals are separate scopes: spans started inside a
// closure must be balanced inside it. Deliberate exceptions (a span
// handed off to another goroutine for ending) carry
// //lint:allow obspair with a justification.
var ObsPair = &analysis.Analyzer{
	Name: "obspair",
	Doc:  "every obs.StartSpan span is ended on all return paths (defer, direct End, or an ending closure)",
	Run:  runObsPair,
}

func runObsPair(pass *analysis.Pass) {
	// Index this package's function declarations so span handoffs to
	// same-package helpers can be followed one level deep.
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := pass.Pkg.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkSpanBalance(pass, n.Body, decls)
				}
			case *ast.FuncLit:
				checkSpanBalance(pass, n.Body, decls)
			}
			return true
		})
	}
}

type spanStart struct {
	obj types.Object
	pos token.Pos
}

// checkSpanBalance analyzes one function body. Nested function
// literals are skipped (each gets its own invocation) except where
// they define local closures whose bodies may end spans on behalf of
// the enclosing function.
func checkSpanBalance(pass *analysis.Pass, body *ast.BlockStmt, decls map[types.Object]*ast.FuncDecl) {
	var starts []spanStart

	// Pass 1: find StartSpan assignments and local closure
	// definitions at this nesting level.
	closures := make(map[types.Object]*ast.FuncLit)
	walkSkipFuncLit(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		if len(as.Rhs) == 1 {
			if lit, ok := as.Rhs[0].(*ast.FuncLit); ok && len(as.Lhs) == 1 {
				if obj := objectFor(pass, as.Lhs[0]); obj != nil {
					closures[obj] = lit
				}
				return
			}
		}
		if len(as.Rhs) != 1 || len(as.Lhs) != 2 || !isStartSpanCall(pass, as.Rhs[0]) {
			return
		}
		spanIdent, ok := as.Lhs[1].(*ast.Ident)
		if !ok {
			return
		}
		if spanIdent.Name == "_" {
			pass.Report(as.Pos(), "span from obs.StartSpan discarded; keep it and End it on every return path")
			return
		}
		if obj := objectFor(pass, spanIdent); obj != nil {
			starts = append(starts, spanStart{obj: obj, pos: as.Pos()})
		}
	})
	if len(starts) == 0 {
		return
	}

	// Pass 1.5: spans that escape this function hand ownership to
	// whoever holds the escaped reference — ending them here would be a
	// double-End. Escapes are: assignment into a field or element,
	// appearance in a composite literal, being returned, or a channel
	// send.
	escaped := make(map[types.Object]bool)
	walkSkipFuncLit(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return // multi-value call form: RHS is a call, nothing escapes
			}
			for i, rhs := range n.Rhs {
				obj := objectFor(pass, rhs)
				if obj == nil {
					continue
				}
				switch n.Lhs[i].(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					escaped[obj] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if obj := objectFor(pass, r); obj != nil {
					escaped[obj] = true
				}
			}
		case *ast.SendStmt:
			if obj := objectFor(pass, n.Value); obj != nil {
				escaped[obj] = true
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if obj := objectFor(pass, e); obj != nil {
					escaped[obj] = true
				}
			}
		}
	})

	// endsSpan reports whether the statement-level node ends obj:
	// obj.End(), a call to a local closure whose body ends obj, or a
	// function literal (deferred) containing obj.End().
	endsSpan := func(n ast.Node, obj types.Object) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isEndCallOn(pass, n, obj) {
				return true
			}
			if callee := objectForExpr(pass, n.Fun); callee != nil {
				if lit, ok := closures[callee]; ok && containsEndOf(pass, lit.Body, obj) {
					return true
				}
			}
			if lit, ok := n.Fun.(*ast.FuncLit); ok { // defer func(){...}()
				return containsEndOf(pass, lit.Body, obj)
			}
			// Span handed to another function as an argument.
			for i, arg := range n.Args {
				if objectFor(pass, arg) == obj {
					return calleeEndsParam(pass, decls, n, i)
				}
			}
		}
		return false
	}

	for _, st := range starts {
		if escaped[st.obj] {
			continue
		}
		deferred := false
		var endPositions []token.Pos
		walkSkipFuncLit(body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if endsSpan(n.Call, st.obj) {
					deferred = true
				}
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && endsSpan(call, st.obj) {
					endPositions = append(endPositions, n.Pos())
				}
			}
		})
		if deferred {
			continue
		}
		if len(endPositions) == 0 {
			pass.Report(st.pos, "span %s is never ended; add defer %s.End()", st.obj.Name(), st.obj.Name())
			continue
		}
		// Every return after the start needs an End between them.
		walkSkipFuncLit(body, func(n ast.Node) {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || ret.Pos() <= st.pos {
				return
			}
			for _, ep := range endPositions {
				if ep > st.pos && ep < ret.Pos() {
					return
				}
			}
			pass.Report(ret.Pos(),
				"return without ending span %s started at line %d; prefer defer %s.End()",
				st.obj.Name(), pass.Pkg.Fset.Position(st.pos).Line, st.obj.Name())
		})
	}
}

// calleeEndsParam reports whether the function called by call ends the
// parameter receiving argument argIdx. Callees outside the package (or
// otherwise invisible) are assumed to take over End responsibility.
func calleeEndsParam(pass *analysis.Pass, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr, argIdx int) bool {
	var callee types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee = pass.Pkg.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		callee = pass.Pkg.TypesInfo.Uses[fun.Sel]
	}
	decl, ok := decls[callee]
	if !ok || decl.Body == nil {
		return true // invisible callee: treat as a deliberate handoff
	}
	var params []types.Object
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			params = append(params, nil) // unnamed: cannot be ended
			continue
		}
		for _, name := range field.Names {
			params = append(params, pass.Pkg.TypesInfo.Defs[name])
		}
	}
	if len(params) == 0 {
		return true
	}
	// Variadic tail: arguments beyond the last parameter map onto it.
	if argIdx >= len(params) {
		argIdx = len(params) - 1
	}
	pobj := params[argIdx]
	return pobj != nil && containsEndOf(pass, decl.Body, pobj)
}

// walkSkipFuncLit walks the statements of body without descending
// into nested function literals (which are independent span scopes).
func walkSkipFuncLit(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// isStartSpanCall reports whether e is a call to
// <module>/internal/obs.StartSpan.
func isStartSpanCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StartSpan" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Pkg.TypesInfo.Uses[id].(*types.PkgName)
	return ok && isUnder(pn.Imported().Path(), "internal", "obs")
}

// isEndCallOn reports whether call is obj.End().
func isEndCallOn(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	return objectForExpr(pass, sel.X) == obj
}

// containsEndOf reports whether any node under root calls obj.End().
func containsEndOf(pass *analysis.Pass, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isEndCallOn(pass, call, obj) {
			found = true
		}
		return !found
	})
	return found
}

// objectFor resolves an identifier expression to its object, covering
// both definitions (`:=`) and plain assignments (`=`).
func objectFor(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.Pkg.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.Pkg.TypesInfo.Uses[id]
}

// objectForExpr resolves a plain identifier expression (not
// selectors) to its object.
func objectForExpr(pass *analysis.Pass, e ast.Expr) types.Object {
	return objectFor(pass, e)
}
