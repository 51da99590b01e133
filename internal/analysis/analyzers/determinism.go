package analyzers

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// Determinism encodes the paper-level reproducibility requirement: the
// identify/remedy pipeline must regenerate bit-identically from a
// seed, so library packages may not reach for ambient entropy. Three
// things are flagged in library (internal/) code:
//
//   - importing math/rand (or v2): random sources are constructed only
//     by internal/stats.NewRNG and threaded through explicitly.
//     Packages that merely consume an injected *rand.Rand waive the
//     import with //lint:allow determinism and a justification.
//   - package-level math/rand functions and time.Now: ambient
//     process-global entropy and wall-clock reads.
//   - emitting output or drawing randomness while ranging over a map:
//     Go map iteration order is deliberately randomized, so a
//     print/write inside such a loop produces run-dependent output,
//     and a *rand.Rand used there (a method call, or passed as an
//     argument) hands each key a run-dependent draw; sort the keys
//     first.
//
// internal/stats (the sanctioned RNG home) and internal/obs (the
// observability layer, whose entire job is reading the wall clock) are
// exempt by construction.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbids math/rand, time.Now, and map-iteration-ordered output or RNG draws in " +
		"library packages outside internal/stats and internal/obs; sampling " +
		"goes through seeded RNGs from internal/stats",
	AppliesTo: func(path string) bool {
		return isUnder(path, "internal") &&
			!isUnder(path, "internal", "stats") &&
			!isUnder(path, "internal", "obs")
	},
	Run: runDeterminism,
}

func runDeterminism(pass *analysis.Pass) {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Report(imp.Pos(),
					"import of "+p+" in deterministic library code; construct RNGs with internal/stats.NewRNG (type-only consumers waive with //lint:allow)")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				pkgPath := obj.Pkg().Path()
				// Package-scope functions/variables only: methods on an
				// injected *rand.Rand are the sanctioned pattern, and
				// naming the types rand.Rand / rand.Source in a
				// signature is how injection is spelled.
				if obj.Parent() != obj.Pkg().Scope() {
					return true
				}
				switch obj.(type) {
				case *types.Func, *types.Var:
				default:
					return true
				}
				switch pkgPath {
				case "math/rand", "math/rand/v2":
					pass.Report(n.Pos(),
						"use of package-level "+pkgPath+"."+obj.Name()+" draws from ambient process entropy; thread a seeded *rand.Rand from internal/stats")
				case "time":
					if obj.Name() == "Now" {
						pass.Report(n.Pos(),
							"call to time.Now in deterministic library code; wall-clock reads belong in internal/obs or behind //lint:allow")
					}
				}
			case *ast.RangeStmt:
				checkMapRangeOutput(pass, n)
			}
			return true
		})
	}
}

// checkMapRangeOutput flags print/write calls and *rand.Rand uses
// whose order is dictated by map iteration.
func checkMapRangeOutput(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Pkg.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := outputCallName(pass, call); ok {
			pass.Report(call.Pos(),
				"call to "+name+" inside range over map emits output in nondeterministic order; collect and sort the keys first")
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isRandRand(pass, sel.X) {
			pass.Report(call.Pos(),
				"draw from *rand.Rand inside range over map consumes the RNG in nondeterministic order; collect and sort the keys first")
		}
		for _, arg := range call.Args {
			if isRandRand(pass, arg) {
				pass.Report(arg.Pos(),
					"*rand.Rand passed to a call inside range over map is consumed in nondeterministic order; collect and sort the keys first")
			}
		}
		return true
	})
}

// isRandRand reports whether e is a *rand.Rand of math/rand or
// math/rand/v2.
func isRandRand(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.TypesInfo.Types[e]
	if !ok {
		return false
	}
	t := types.TypeString(tv.Type, nil)
	return t == "*math/rand.Rand" || t == "*math/rand/v2.Rand"
}

// outputCallName reports whether call emits ordered output: the fmt
// print family, or a Write/WriteString/WriteByte/WriteRune/Print*
// method on any receiver.
func outputCallName(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// fmt.Print / fmt.Fprintf / ...
	if id, ok := sel.X.(*ast.Ident); ok {
		if obj, ok := pass.Pkg.TypesInfo.Uses[id].(*types.PkgName); ok && obj.Imported().Path() == "fmt" {
			switch sel.Sel.Name {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return "fmt." + sel.Sel.Name, true
			}
			return "", false
		}
	}
	// Writer-ish methods on any value.
	if pass.Pkg.TypesInfo.Selections[sel] == nil {
		return "", false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println":
		return "(method) " + sel.Sel.Name, true
	}
	return "", false
}
