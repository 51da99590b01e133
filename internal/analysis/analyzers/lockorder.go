package analyzers

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Lockorder derives the module-wide lock-acquisition graph and flags
// cycles as potential deadlocks. A directed edge A -> B is recorded
// whenever lock class B is acquired — directly, or anywhere down a
// synchronous call chain — while class A is held. Two orderings that
// oppose each other (the PR 6 `applyMu`/`mu` review class: promote
// holds applyMu then takes mu, while some other path holds mu then
// takes applyMu) form a cycle: two goroutines running the two paths
// concurrently can each hold the lock the other needs.
//
// Self-cycles are flagged too: sync.Mutex is not reentrant, so a
// function that (transitively) re-acquires a write lock it already
// holds deadlocks with itself.
//
// The graph is built on the interprocedural lock-set layer in
// internal/analysis: lock regions are source-order approximations, go
// statements are excluded from the caller's stack, and calls through
// function values are not traversed (documented soundness limits).
// Each cycle is reported once, at its smallest-position witness edge,
// so one //lint:allow lockorder at that line waives the whole cycle.
var Lockorder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "flags lock-order cycles (potential deadlocks) in the module-wide " +
		"lock-acquisition graph, including non-reentrant self-acquisition",
	NeedsProgram: true,
	Run:          runLockorder,
}

// lockEdge is one observed ordering: to acquired while from is held.
type lockEdge struct {
	from, to *analysis.LockClass
	// pos/fn locate the witness acquisition (smallest position wins).
	pos  token.Pos
	fn   *analysis.FuncNode
	path []string
	// readerPair marks edges where both the held region and the new
	// acquisition are read locks; a self-cycle of those is legal.
	readerPair bool
}

type lockFinding struct {
	fn  *analysis.FuncNode
	pos token.Pos
	msg string
}

func runLockorder(pass *analysis.Pass) {
	v := pass.Prog.Cache("lockorder.result", func() any { return computeLockorder(pass.Prog) })
	findings, ok := v.([]lockFinding)
	if !ok {
		return
	}
	for _, f := range findings {
		if f.fn.Pkg == pass.Pkg {
			pass.Report(f.pos, "%s", f.msg)
		}
	}
}

func computeLockorder(prog *analysis.Program) []lockFinding {
	edges := map[[2]*analysis.LockClass]*lockEdge{}
	record := func(e *lockEdge) {
		k := [2]*analysis.LockClass{e.from, e.to}
		if old, ok := edges[k]; !ok || e.pos < old.pos {
			edges[k] = e
		}
	}

	for _, fn := range prog.Nodes {
		for _, cs := range fn.Calls {
			if cs.Async || cs.Deferred {
				continue
			}
			held := prog.HeldAt(fn, cs.Pos)
			if len(held) == 0 {
				continue
			}
			if class, op := prog.LockCall(cs); class != nil {
				if op != analysis.LockOpLock && op != analysis.LockOpRLock {
					continue
				}
				for _, h := range held {
					record(&lockEdge{
						from: h.Class, to: class, pos: cs.Pos, fn: fn,
						path:       []string{fn.Name() + " locks " + class.Key},
						readerPair: h.Reader && op == analysis.LockOpRLock,
					})
				}
				continue
			}
			for _, t := range cs.Targets {
				acq := prog.Acquired(t)
				classes := make([]*analysis.LockClass, 0, len(acq))
				for c := range acq {
					classes = append(classes, c)
				}
				sort.Slice(classes, func(i, j int) bool { return classes[i].Key < classes[j].Key })
				for _, c := range classes {
					for _, h := range held {
						record(&lockEdge{
							from: h.Class, to: c, pos: cs.Pos, fn: fn,
							path: append([]string{fn.Name()}, acq[c].Path...),
						})
					}
				}
			}
		}
	}

	// Condense the class graph into strongly connected components;
	// every SCC larger than one class — or any self-edge — is a
	// potential deadlock.
	adj := map[*analysis.LockClass][]*analysis.LockClass{}
	var classes []*analysis.LockClass
	seen := map[*analysis.LockClass]bool{}
	keys := make([][2]*analysis.LockClass, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0].Key != keys[j][0].Key {
			return keys[i][0].Key < keys[j][0].Key
		}
		return keys[i][1].Key < keys[j][1].Key
	})
	for _, k := range keys {
		adj[k[0]] = append(adj[k[0]], k[1])
		for _, c := range [2]*analysis.LockClass{k[0], k[1]} {
			if !seen[c] {
				seen[c] = true
				classes = append(classes, c)
			}
		}
	}
	sccs := tarjanSCC(classes, adj)

	var findings []lockFinding
	for _, scc := range sccs {
		member := map[*analysis.LockClass]bool{}
		for _, c := range scc {
			member[c] = true
		}
		if len(scc) == 1 {
			c := scc[0]
			e, ok := edges[[2]*analysis.LockClass{c, c}]
			if !ok || e.readerPair {
				continue // no self-edge, or a legal RLock re-entry
			}
			findings = append(findings, lockFinding{
				fn: e.fn, pos: e.pos,
				msg: fmt.Sprintf("potential deadlock: %s reacquired while already held (%s); sync.Mutex is not reentrant",
					c.Key, strings.Join(e.path, " -> ")),
			})
			continue
		}
		// Multi-class cycle: report at the smallest-position in-SCC
		// edge, naming the reverse path so both sides are actionable.
		var witness *lockEdge
		for _, k := range keys {
			if !member[k[0]] || !member[k[1]] || k[0] == k[1] {
				continue
			}
			e := edges[k]
			if witness == nil || e.pos < witness.pos {
				witness = e
			}
		}
		if witness == nil {
			continue
		}
		names := make([]string, 0, len(scc))
		for _, c := range scc {
			names = append(names, c.Key)
		}
		sort.Strings(names)
		reverse := ""
		for _, k := range keys {
			if k[0] == witness.to && member[k[1]] && k[1] != witness.to {
				e := edges[k]
				p := e.fn.Pkg.Fset.Position(e.pos)
				reverse = fmt.Sprintf("; opposite order (%s -> %s) at %s:%d",
					k[0].Key, k[1].Key, filepath.Base(p.Filename), p.Line)
				break
			}
		}
		findings = append(findings, lockFinding{
			fn: witness.fn, pos: witness.pos,
			msg: fmt.Sprintf("potential deadlock: lock-order cycle among [%s]: %s acquired while holding %s (%s)%s",
				strings.Join(names, ", "), witness.to.Key, witness.from.Key,
				strings.Join(witness.path, " -> "), reverse),
		})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	return findings
}

// tarjanSCC returns the strongly connected components of the class
// graph, each sorted by key, in deterministic order.
func tarjanSCC(nodes []*analysis.LockClass, adj map[*analysis.LockClass][]*analysis.LockClass) [][]*analysis.LockClass {
	index := map[*analysis.LockClass]int{}
	low := map[*analysis.LockClass]int{}
	onStack := map[*analysis.LockClass]bool{}
	var stack []*analysis.LockClass
	var out [][]*analysis.LockClass
	next := 0

	var strongconnect func(v *analysis.LockClass)
	strongconnect = func(v *analysis.LockClass) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*analysis.LockClass
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i].Key < scc[j].Key })
			out = append(out, scc)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return out
}
