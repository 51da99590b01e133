package analyzers

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Each analyzer is exercised against a golden fixture package under
// testdata/src/<name>/. Expectations live in the fixtures as
//
//	// want "substring" ["substring" ...]
//
// comments on the line the finding is reported at; every want must be
// matched by a finding's message and every finding must be claimed by
// a want. Fixture //lint:allow directives double as suppression tests:
// they must all be used and justified, so the run must produce zero
// warnings.

func TestAnalyzerFixtures(t *testing.T) {
	for _, az := range All() {
		t.Run(az.Name, func(t *testing.T) {
			res, dir := runFixture(t, az)
			checkWants(t, dir, res)
			for _, w := range res.Warnings {
				t.Errorf("unexpected warning: %s", w)
			}
			if res.Suppressed == 0 {
				t.Errorf("fixture for %s suppressed nothing; each fixture must exercise //lint:allow", az.Name)
			}
		})
	}
}

// runFixture loads testdata/src/<analyzer> and runs the single
// analyzer over it.
func runFixture(t *testing.T, az *analysis.Analyzer) (*analysis.Result, string) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join("testdata", "src", az.Name)
	pkgs, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("fixture type error: %v", e)
		}
	}
	return analysis.Run(pkgs, []*analysis.Analyzer{az}, loader.ModuleDir), dir
}

var (
	wantRE   = regexp.MustCompile(`// want (".*")\s*$`)
	quotedRE = regexp.MustCompile(`"([^"]*)"`)
)

// checkWants matches findings against the fixture's want comments,
// keyed by (base filename, line).
func checkWants(t *testing.T, dir string, res *analysis.Result) {
	t.Helper()

	type key struct {
		file string
		line int
	}
	remaining := make(map[key][]string)
	for _, f := range res.Findings {
		k := key{filepath.Base(f.File), f.Line}
		remaining[k] = append(remaining[k], f.Message)
	}
	// claim removes one finding message at k containing substr.
	claim := func(k key, substr string) bool {
		for i, msg := range remaining[k] {
			if strings.Contains(msg, substr) {
				remaining[k] = append(remaining[k][:i], remaining[k][i+1:]...)
				return true
			}
		}
		return false
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			k := key{e.Name(), i + 1}
			for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
				if !claim(k, q[1]) {
					t.Errorf("%s:%d: no finding matching %q (got %v)", e.Name(), i+1, q[1], remaining[k])
				}
			}
			if len(remaining[k]) == 0 {
				delete(remaining, k)
			}
		}
	}
	for k, msgs := range remaining {
		for _, msg := range msgs {
			t.Errorf("%s:%d: unexpected finding: %s", k.file, k.line, msg)
		}
	}
}
