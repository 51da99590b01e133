package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir switches the working directory for one test and restores it on
// cleanup. (testing.T.Chdir needs a newer Go than go.mod declares.)
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Errorf("restoring working directory: %v", err)
		}
	})
}

// scratchModule lays out a throwaway module and chdirs into it.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.22\n"
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
	return dir
}

const violations = `package lib

func helper() error { return nil }

func boom() {
	panic("boom")
}

func drop() {
	_ = helper()
}
`

func TestViolationsFailWithPositions(t *testing.T) {
	scratchModule(t, map[string]string{"internal/lib/lib.go": violations})

	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := []string{
		"internal/lib/lib.go:6:2: panicgate: ",
		"internal/lib/lib.go:10:2: errdiscard: ",
		"remedylint: 2 finding(s), 0 warning(s), 0 suppressed",
	}
	if len(lines) != len(want) {
		t.Fatalf("output has %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i+1, lines[i], w)
		}
	}
}

// A waiver naming no analyzer of the suite is a warning, so a
// directive for a deleted or misspelled analyzer cannot linger.
func TestUnknownAnalyzer(t *testing.T) {
	scratchModule(t, map[string]string{"internal/lib/lib.go": `package lib

func fine() {} //lint:allow nosuch scratch fixture
`})
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "internal/lib/lib.go:3:16: lint (warning): //lint:allow nosuch: unknown analyzer") {
		t.Errorf("unknown-analyzer warning missing:\n%s", out.String())
	}
}

func TestListPrintsTheSuite(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"ctxfirst", "determinism", "errdiscard", "goroleak", "heldcall", "lockorder", "obspair", "panicgate"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestAllowSuppressesInline(t *testing.T) {
	scratchModule(t, map[string]string{"internal/lib/lib.go": `package lib

func sanctioned() {
	panic("unreachable by construction") //lint:allow panicgate scratch fixture
}
`})
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "1 suppressed") {
		t.Errorf("summary should count the suppression:\n%s", out.String())
	}
}

// TestSelfCheck is the acceptance gate: remedylint, run over this
// repository with the full suite, reports nothing. Keeping the tree
// clean is part of every change; fix or waive findings rather than
// relaxing this test.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository from source")
	}
	chdir(t, filepath.Join("..", ".."))
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("remedylint over the repository exited %d, want 0:\n%s%s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "warning") && !strings.Contains(out.String(), "0 warning(s)") {
		t.Errorf("self-check must be warning-free:\n%s", out.String())
	}
}

// -timings appends per-analyzer wall-clock rows (plus the shared
// call-graph build) to the text report.
func TestTimingsRowsPrinted(t *testing.T) {
	scratchModule(t, map[string]string{
		"p/p.go": "package p\n\nfunc ok() {}\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-timings", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"timing:", "lockorder", "heldcall", "(callgraph)"} {
		if !strings.Contains(text, want) {
			t.Errorf("timing output missing %q:\n%s", want, text)
		}
	}
}
