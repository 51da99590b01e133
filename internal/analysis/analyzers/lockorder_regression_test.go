package analyzers

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestLockorderDetectsApplyMuInversion pins the analyzer against the
// exact bug class the PR 6 review caught by hand in internal/cluster:
// the documented discipline is applyMu before mu, and an apply-path
// helper that takes mu first and then fences on applyMu opposes it.
// The fixture under testdata/src/lockorder_regression reintroduces the
// pattern in miniature; if lockorder ever stops seeing it, this fails.
func TestLockorderDetectsApplyMuInversion(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "lockorder_regression"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("fixture type error: %v", e)
		}
	}
	res := analysis.Run(pkgs, []*analysis.Analyzer{Lockorder}, loader.ModuleDir)
	if len(res.Findings) != 1 {
		t.Fatalf("want exactly 1 lockorder finding for the applyMu/mu inversion, got %d: %v",
			len(res.Findings), res.Findings)
	}
	msg := res.Findings[0].Message
	for _, want := range []string{"lock-order cycle", "applyMu", "Node.mu"} {
		if !strings.Contains(msg, want) {
			t.Errorf("finding message %q does not mention %q", msg, want)
		}
	}
	// The message must point at the opposing acquisition so the report
	// is actionable from either side of the cycle.
	if !strings.Contains(msg, "opposite order") {
		t.Errorf("finding message %q does not locate the reverse edge", msg)
	}
}
