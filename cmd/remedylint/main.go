// Command remedylint is the repository's static-analysis gate: it
// machine-checks the correctness contracts the reproduction's
// auditability rests on (panic-free libraries, seeded-RNG-only
// randomness, context-first cancellation, checked errors, balanced
// observability spans, and the concurrency contracts of the service
// layer) using the stdlib-only framework in internal/analysis.
//
// Usage:
//
//	remedylint [flags] [packages]
//
// Packages are directories or recursive patterns ("./...", the
// default). Every run applies the whole suite; an inline
// //lint:allow <analyzer> <reason> comment is the one way to accept a
// finding. Flags:
//
//	-list      print the suite with docs and exit
//	-timings   print per-analyzer wall-clock timing after the findings
//
// Exit status: 0 when no findings, 1 when findings survive the
// //lint:allow suppressions, 2 on operational errors (bad flags,
// unloadable packages, type-check failures).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("remedylint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list the analyzer suite and exit")
		timings = fs.Bool("timings", false, "print per-analyzer wall-clock timing after the findings")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%s\n    %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "remedylint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "remedylint:", err)
		return 2
	}

	res := analysis.Run(pkgs, suite, loader.ModuleDir)
	if err := analysis.WriteText(stdout, res); err != nil {
		fmt.Fprintln(stderr, "remedylint:", err)
		return 2
	}
	if *timings {
		fmt.Fprintln(stdout, "timing:")
		for _, row := range res.TimingRows() {
			fmt.Fprintf(stdout, "  %s\n", row)
		}
	}

	// A tree that does not type-check cannot be trusted to be clean.
	if len(res.TypeErrors) > 0 {
		return 2
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}
