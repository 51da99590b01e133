package analysis

// lockset.go is the lock-set dataflow layer over the call graph: it
// identifies mutex lock classes (which field or variable a Lock call
// is on), derives per-function lock regions by source-order pairing,
// and summarizes which classes a function transitively acquires on its
// own stack. lockorder and heldcall are built on these answers.
//
// The region model is a deliberate under-approximation, computable
// without a CFG: an acquisition opens a region that closes at the next
// non-deferred Unlock of the same class in source order, or at the end
// of the body when the release is deferred (or missing). Branchy code
// that unlocks early on one path therefore yields the shortest
// consistent region — the conservative direction for avoiding false
// positives, at the cost of missing holds that only long branches
// perform.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockClass identifies one mutex across the module: a struct field
// (`cluster.Node.mu`), a package-level variable, or a local. Identity
// is the field/variable's types.Object, so the same field locked from
// different packages is one class.
type LockClass struct {
	Obj types.Object
	// Key is the stable display name: "pkg.Type.field", "pkg.var", or
	// "pkg.Type(embedded)" for promoted sync.Mutex embeds.
	Key string
}

// LockOp classifies a mutex method call.
type LockOp int

const (
	LockOpNone LockOp = iota
	LockOpLock
	LockOpRLock
	LockOpUnlock
	LockOpRUnlock
)

// LockRegion is one source-order span of a function body during which
// a lock class is held.
type LockRegion struct {
	Class  *LockClass
	Reader bool
	// Acquire is the position of the Lock/RLock call.
	Acquire token.Pos
	// End is the position of the pairing non-deferred Unlock, or the
	// end of the function body when released by defer (or never).
	End token.Pos
	// DeferRelease marks regions released by a deferred Unlock.
	DeferRelease bool
}

type funcLocks struct {
	regions []*LockRegion
}

// LockCall classifies a call site as a mutex operation, returning the
// lock class and operation (LockOpNone when cs is not a mutex method
// call or the mutex cannot be identified).
func (p *Program) LockCall(cs *CallSite) (*LockClass, LockOp) {
	if cs.Callee == nil || cs.Callee.Pkg() == nil || cs.Callee.Pkg().Path() != "sync" {
		return nil, LockOpNone
	}
	var op LockOp
	switch cs.Callee.Name() {
	case "Lock":
		op = LockOpLock
	case "RLock":
		op = LockOpRLock
	case "Unlock":
		op = LockOpUnlock
	case "RUnlock":
		op = LockOpRUnlock
	default:
		return nil, LockOpNone
	}
	sig, ok := cs.Callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, LockOpNone
	}
	recvNamed := namedOf(sig.Recv().Type())
	if recvNamed == nil {
		return nil, LockOpNone
	}
	name := recvNamed.Obj().Name()
	if name != "Mutex" && name != "RWMutex" {
		return nil, LockOpNone
	}
	class := p.classFor(cs)
	if class == nil {
		return nil, LockOpNone
	}
	return class, op
}

// classFor identifies the lock class of a mutex method call from its
// receiver expression.
func (p *Program) classFor(cs *CallSite) *LockClass {
	if cs.Recv == nil || cs.Caller == nil {
		return nil
	}
	info := cs.Caller.Pkg.TypesInfo
	pkgName := ""
	if tp := cs.Caller.Pkg.Types; tp != nil {
		pkgName = tp.Name()
	}
	recv := unparen(cs.Recv)
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			obj := sel.Obj()
			key := obj.Name()
			if owner := namedOf(sel.Recv()); owner != nil {
				q := pkgName
				if op := owner.Obj().Pkg(); op != nil {
					q = op.Name()
				}
				key = q + "." + owner.Obj().Name() + "." + obj.Name()
			}
			return p.internClass(obj, key)
		}
		// Qualified package-level var: pkg.mu.Lock().
		if obj := info.Uses[e.Sel]; obj != nil {
			q := pkgName
			if op := obj.Pkg(); op != nil {
				q = op.Name()
			}
			return p.internClass(obj, q+"."+obj.Name())
		}
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return nil
		}
		// A promoted embedded mutex (`type T struct{ sync.Mutex }`;
		// `t.Lock()`): class per embedding type, not per variable.
		if named := namedOf(obj.Type()); named != nil && named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex" {
			q := pkgName
			if op := named.Obj().Pkg(); op != nil {
				q = op.Name()
			}
			return p.internClass(named.Obj(), q+"."+named.Obj().Name()+"(embedded)")
		}
		q := pkgName
		if obj.Pkg() != nil {
			q = obj.Pkg().Name()
		}
		return p.internClass(obj, q+"."+obj.Name())
	}
	return nil
}

func (p *Program) internClass(obj types.Object, key string) *LockClass {
	v := p.Cache("lockset.classes", func() any { return map[types.Object]*LockClass{} })
	classes, ok := v.(map[types.Object]*LockClass)
	if !ok {
		return nil
	}
	if c, ok := classes[obj]; ok {
		return c
	}
	c := &LockClass{Obj: obj, Key: key}
	classes[obj] = c
	return c
}

// lockRegions returns fn's lock regions, computed lazily.
func (p *Program) lockRegions(fn *FuncNode) []*LockRegion {
	if fn.locks != nil {
		return fn.locks.regions
	}
	fl := &funcLocks{}
	fn.locks = fl
	bodyEnd := fn.Decl.Body.End()
	open := map[*LockClass][]*LockRegion{}
	for _, cs := range fn.Calls {
		if cs.Async {
			continue
		}
		class, op := p.LockCall(cs)
		if class == nil {
			continue
		}
		switch op {
		case LockOpLock, LockOpRLock:
			if cs.Deferred {
				continue // a deferred re-acquire contributes no region
			}
			r := &LockRegion{Class: class, Reader: op == LockOpRLock, Acquire: cs.Pos, End: bodyEnd}
			fl.regions = append(fl.regions, r)
			open[class] = append(open[class], r)
		case LockOpUnlock, LockOpRUnlock:
			stack := open[class]
			if len(stack) == 0 {
				continue // unlock in a "caller holds" helper
			}
			if cs.Deferred {
				stack[len(stack)-1].DeferRelease = true
				continue // held to function end
			}
			stack[len(stack)-1].End = cs.Pos
			open[class] = stack[:len(stack)-1]
		}
	}
	return fl.regions
}

// HeldAt returns the regions of fn covering pos (exclusive of the
// acquiring call itself).
func (p *Program) HeldAt(fn *FuncNode, pos token.Pos) []*LockRegion {
	var held []*LockRegion
	for _, r := range p.lockRegions(fn) {
		if r.Acquire < pos && pos < r.End {
			held = append(held, r)
		}
	}
	return held
}

// AcqWitness explains one transitively-acquired lock class: the call
// chain from the summarized function down to the acquiring Lock call.
type AcqWitness struct {
	// Pos is the first-step site inside the summarized function.
	Pos token.Pos
	// Path is the call chain; the last element names the acquisition.
	Path []string
}

// Acquired summarizes every lock class fn acquires on its own stack —
// directly or through synchronous module-local callees. Deferred and
// asynchronous acquisitions are excluded. Cycles are cut
// conservatively.
func (p *Program) Acquired(fn *FuncNode) map[*LockClass]*AcqWitness {
	v := p.Cache("lockset.acquired", func() any { return map[*FuncNode]map[*LockClass]*AcqWitness{} })
	memo, ok := v.(map[*FuncNode]map[*LockClass]*AcqWitness)
	if !ok {
		return nil
	}
	var visit func(n *FuncNode, visiting map[*FuncNode]bool) map[*LockClass]*AcqWitness
	visit = func(n *FuncNode, visiting map[*FuncNode]bool) map[*LockClass]*AcqWitness {
		if out, ok := memo[n]; ok {
			return out
		}
		if visiting[n] {
			return nil
		}
		visiting[n] = true
		defer delete(visiting, n)
		out := map[*LockClass]*AcqWitness{}
		for _, cs := range n.Calls {
			if cs.Async || cs.Deferred {
				continue
			}
			if class, op := p.LockCall(cs); class != nil && (op == LockOpLock || op == LockOpRLock) {
				if _, ok := out[class]; !ok {
					out[class] = &AcqWitness{Pos: cs.Pos, Path: []string{n.Name() + " locks " + class.Key}}
				}
				continue
			}
			for _, t := range cs.Targets {
				for class, w := range visit(t, visiting) {
					if _, ok := out[class]; !ok {
						out[class] = &AcqWitness{Pos: cs.Pos, Path: append([]string{n.Name()}, w.Path...)}
					}
				}
			}
		}
		if len(visiting) == 1 {
			memo[n] = out
		}
		return out
	}
	return visit(fn, map[*FuncNode]bool{})
}
