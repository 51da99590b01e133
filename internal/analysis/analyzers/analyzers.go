// Package analyzers holds the remedylint analyzer suite: the
// machine-checked form of this repository's correctness contracts.
// Each analyzer is a small, self-contained check over one type-checked
// package; the framework in internal/analysis handles loading,
// //lint:allow suppression, and reporting.
package analyzers

import (
	"strings"

	"repro/internal/analysis"
)

// All returns the full suite in name order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		CtxFirst,
		Determinism,
		ErrDiscard,
		Goroleak,
		Heldcall,
		Lockorder,
		ObsPair,
		PanicGate,
	}
}

// isUnder reports whether the consecutive path elements elems appear
// somewhere in the slash-separated import path. isUnder("repro/internal/stats",
// "internal", "stats") is true; matching is element-bounded, so
// "internal/statsx" does not match ("internal", "stats").
func isUnder(path string, elems ...string) bool {
	parts := strings.Split(path, "/")
	if len(elems) == 0 || len(elems) > len(parts) {
		return false
	}
outer:
	for i := 0; i+len(elems) <= len(parts); i++ {
		for j, e := range elems {
			if parts[i+j] != e {
				continue outer
			}
		}
		return true
	}
	return false
}
