package analysis

import (
	"bytes"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stub flags every function whose name starts with Flag; the fixture
// package in testdata/src/framework exercises the driver around it.
var stub = &Analyzer{
	Name: "stub",
	Doc:  "flags functions whose names start with Flag",
	Run: func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Flag") {
					pass.Report(fd.Pos(), "function %s is flagged", fd.Name.Name)
				}
			}
		}
	},
}

// loadFramework loads the driver fixture package.
func loadFramework(t *testing.T) ([]*Package, *Loader) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "framework"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("fixture type error: %v", e)
		}
	}
	return pkgs, loader
}

func TestDriverSuppressionAndWarnings(t *testing.T) {
	pkgs, loader := loadFramework(t)
	res := Run(pkgs, []*Analyzer{stub}, loader.ModuleDir)

	var msgs []string
	for _, f := range res.Findings {
		msgs = append(msgs, f.Message)
	}
	want := []string{"function FlagMe is flagged", "function FlagOther is flagged"}
	if len(msgs) != len(want) || msgs[0] != want[0] || msgs[1] != want[1] {
		t.Errorf("findings = %v, want %v", msgs, want)
	}
	if res.Suppressed != 2 {
		t.Errorf("Suppressed = %d, want 2 (justified + inline directives)", res.Suppressed)
	}

	wantWarn := []string{
		"//lint:allow stub has no justification",
		"unused //lint:allow stub",
		"malformed //lint:allow: missing analyzer name",
		"//lint:allow nosuch: unknown analyzer",
	}
	if len(res.Warnings) != len(wantWarn) {
		t.Fatalf("Warnings = %v, want %d warnings", res.Warnings, len(wantWarn))
	}
	for _, sub := range wantWarn {
		found := false
		for _, w := range res.Warnings {
			found = found || strings.Contains(w.Message, sub)
		}
		if !found {
			t.Errorf("no warning containing %q in %v", sub, res.Warnings)
		}
	}
}

func TestLoadOutsideModule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load(os.TempDir()); err == nil {
		t.Fatal("loading a directory outside the module must fail")
	}
}

func TestReporters(t *testing.T) {
	res := &Result{
		Findings: []Finding{{
			File: "internal/x/x.go", Line: 3, Col: 2,
			Analyzer: "stub", Message: "function FlagMe is flagged",
		}},
		Warnings: []Finding{{
			File: "internal/x/x.go", Line: 9, Col: 1,
			Analyzer: "lint", Message: "//lint:allow nosuch: unknown analyzer",
		}},
		Suppressed: 1,
	}

	var text bytes.Buffer
	if err := WriteText(&text, res); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{
		"internal/x/x.go:3:2: stub: function FlagMe is flagged\n",
		"internal/x/x.go:9:1: lint (warning): //lint:allow nosuch: unknown analyzer\n",
		"remedylint: 1 finding(s), 1 warning(s), 1 suppressed\n",
	} {
		if !strings.Contains(text.String(), sub) {
			t.Errorf("text report missing %q:\n%s", sub, text.String())
		}
	}
}
