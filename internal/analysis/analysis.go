// Package analysis is a from-scratch static-analysis framework built
// entirely on the Go standard library (go/parser, go/ast, go/types,
// go/importer — no golang.org/x/tools). It exists to machine-check the
// correctness contracts this repository's reproducibility story rests
// on: panic-free library code, seeded-RNG-only randomness, context
// threading, checked errors, and balanced observability spans.
//
// The moving parts:
//
//   - Loader parses and type-checks every package in the module,
//     resolving module-local imports itself and standard-library
//     imports through the source importer.
//   - An Analyzer inspects one type-checked Package at a time and
//     reports Diagnostics through a Pass.
//   - //lint:allow <analyzer> <justification> comments suppress a
//     finding on the same or the following line; they are the one way
//     to accept a finding.
//   - Run applies the suite and the suppressions; WriteText renders
//     the surviving findings.
//
// The cmd/remedylint binary wires these together as the CI gate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding: where, which analyzer, what.
type Diagnostic struct {
	// Pos locates the finding. File is as reported by the loader
	// (absolute or loader-relative); reporters rewrite it relative to
	// the module root.
	Pos      token.Position
	Analyzer string
	Message  string
}

// Package is one parsed and type-checked package of the module under
// analysis. Test files (_test.go) are excluded: the repository's
// contracts govern library and command code, and tests are explicitly
// free to panic, sleep, and read the clock.
type Package struct {
	// Path is the package's import path (module path + directory),
	// e.g. "repro/internal/remedy".
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Types and TypesInfo carry the go/types results. Types is non-nil
	// even when type-checking reported errors (partial information).
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors collects soft type-checking errors. Analyzers run
	// over partially-checked packages; the driver surfaces these
	// separately so a broken tree does not silently pass the gate.
	TypeErrors []error
}

// Pass is the per-(analyzer, package) reporting context handed to an
// Analyzer's Run function.
type Pass struct {
	Pkg *Package
	// Prog is the module-wide call graph and lock-set view, shared by
	// every pass of one run. Non-nil only when at least one analyzer
	// of the run sets NeedsProgram; analyzers that set it may assume it.
	Prog     *Program
	analyzer *Analyzer
	report   func(Diagnostic)
}

// Report files a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. Run inspects pass.Pkg and calls
// pass.Report for each finding. Analyzers must be stateless across
// packages: the driver may run them in any order.
type Analyzer struct {
	// Name is the identifier //lint:allow directives use. Lower-case,
	// no spaces.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// AppliesTo reports whether the analyzer should run on the package
	// with the given import path. A nil AppliesTo means every package.
	AppliesTo func(pkgPath string) bool
	// NeedsProgram requests the module-wide interprocedural view: when
	// set, the driver builds one Program over all loaded packages and
	// hands it to every pass as Pass.Prog.
	NeedsProgram bool
	// Run performs the check.
	Run func(*Pass)
}
