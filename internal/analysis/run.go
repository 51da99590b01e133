package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// Finding is a Diagnostic that survived suppression, with its file
// path rewritten relative to the module root (slash-separated) for
// stable reports.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Result is the outcome of one analysis run.
type Result struct {
	// Findings are the live problems: not waived inline. A non-empty
	// slice fails the gate.
	Findings []Finding
	// Warnings are advisory: //lint:allow directives that are
	// malformed, unjustified, name no analyzer of the suite, or no
	// longer suppress anything. They do not fail the gate but are
	// always reported.
	Warnings []Finding
	// Suppressed counts the findings waived by //lint:allow directives.
	Suppressed int
	// TypeErrors count soft type-check errors across the loaded
	// packages. Analysis of a tree that does not compile is
	// best-effort; the driver surfaces the count so CI can insist on
	// zero.
	TypeErrors []string
	// Timings accumulates wall-clock time per analyzer across all
	// packages (plus a "(callgraph)" entry for Program construction),
	// printed by remedylint -timings.
	Timings map[string]time.Duration
}

// TimingRows renders Timings sorted by descending cost for display.
func (r *Result) TimingRows() []string {
	names := make([]string, 0, len(r.Timings))
	for name := range r.Timings {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if r.Timings[names[i]] != r.Timings[names[j]] {
			return r.Timings[names[i]] > r.Timings[names[j]]
		}
		return names[i] < names[j]
	})
	rows := make([]string, len(names))
	for i, name := range names {
		rows[i] = fmt.Sprintf("%-14s %s", name, r.Timings[name].Round(time.Microsecond))
	}
	return rows
}

// Run executes the analyzers over the packages, then applies
// //lint:allow suppression. A directive naming an analyzer outside
// analyzers is reported as a warning, so pass the whole suite.
// moduleDir anchors the relative paths in the result; pass the
// Loader's ModuleDir.
func Run(pkgs []*Package, analyzers []*Analyzer, moduleDir string) *Result {
	res := &Result{Timings: map[string]time.Duration{}}
	for _, a := range analyzers {
		// Pre-seed so every analyzer shows a timing row even when
		// AppliesTo filters it off all loaded packages.
		res.Timings[a.Name] = 0
	}

	// Wall-clock timing here is diagnostic output for the lint tooling
	// itself (make lint), never analysis input, so the determinism
	// contract's seeded-clock rule does not apply.
	var prog *Program
	for _, a := range analyzers {
		if a.NeedsProgram {
			start := time.Now() //lint:allow determinism diagnostic timing of the lint run itself, not analysis input
			prog = BuildProgram(pkgs)
			res.Timings["(callgraph)"] = time.Since(start)
			break
		}
	}

	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			res.TypeErrors = append(res.TypeErrors, e.Error())
		}
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Pkg:      pkg,
				Prog:     prog,
				analyzer: a,
				report:   func(d Diagnostic) { raw = append(raw, d) },
			}
			start := time.Now() //lint:allow determinism diagnostic timing of the lint run itself, not analysis input
			a.Run(pass)
			res.Timings[a.Name] += time.Since(start)
		}
	}

	allows := collectAllows(pkgs)
	idx := buildAllowIndex(allows)

	// Sorted, so findings come out in position order and identical
	// duplicates sit next to each other.
	sort.Slice(raw, func(i, j int) bool { return lessDiag(raw[i], raw[j]) })

	var prev Diagnostic
	for i, d := range raw {
		if i > 0 && d == prev {
			continue // identical duplicate (e.g. nested flagging of one call)
		}
		prev = d
		if idx.suppresses(d.Analyzer, d.Pos.Filename, d.Pos.Line) {
			res.Suppressed++
			continue
		}
		res.Findings = append(res.Findings, Finding{
			File:     relFile(moduleDir, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, d := range allows {
		w := Finding{
			File:     relFile(moduleDir, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: "lint",
		}
		switch {
		case d.Analyzer == "":
			w.Message = "malformed //lint:allow: missing analyzer name"
		case !known[d.Analyzer]:
			w.Message = fmt.Sprintf("//lint:allow %s: unknown analyzer", d.Analyzer)
		case d.Justification == "":
			w.Message = fmt.Sprintf("//lint:allow %s has no justification", d.Analyzer)
		case !d.used:
			w.Message = fmt.Sprintf("unused //lint:allow %s: nothing to suppress here", d.Analyzer)
		default:
			continue
		}
		res.Warnings = append(res.Warnings, w)
	}
	sort.Slice(res.Warnings, func(i, j int) bool { return lessFinding(res.Warnings[i], res.Warnings[j]) })
	return res
}

func lessDiag(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}

func lessFinding(a, b Finding) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	return a.Analyzer < b.Analyzer
}

// relFile rewrites an absolute filename relative to the module root
// with forward slashes; files outside the module keep their absolute
// path.
func relFile(moduleDir, file string) string {
	if moduleDir == "" {
		return file
	}
	rel, err := filepath.Rel(moduleDir, file)
	if err != nil || len(rel) >= 2 && rel[:2] == ".." {
		return file
	}
	return filepath.ToSlash(rel)
}
