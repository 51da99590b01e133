package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// quickRun is one experiment's quick-scale output.
type quickRun struct {
	id     string
	desc   string
	tables []*experiments.Table
	err    error
}

var (
	quickOnce sync.Once
	quickRuns []quickRun
)

// quickTables runs every registered experiment once at quick scale
// with seed 1; the tests of this package share the result.
func quickTables() []quickRun {
	quickOnce.Do(func() {
		for _, r := range runners() {
			tables, err := r.run(1, true)
			quickRuns = append(quickRuns, quickRun{r.id, r.desc, tables, err})
		}
	})
	return quickRuns
}

// timeColumn reports whether a column holds wall-clock seconds, which
// vary from run to run and are left out of the digest.
func timeColumn(name string) bool { return strings.HasSuffix(name, "(s)") }

// tableDigest hashes a table's title and every cell outside its time
// columns.
func tableDigest(tab *experiments.Table) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x1e", tab.Title)
	for _, row := range append([][]string{tab.Columns}, tab.Rows...) {
		for j, cell := range row {
			if !timeColumn(tab.Columns[j]) {
				fmt.Fprintf(h, "%s\x1f", cell)
			}
		}
		fmt.Fprint(h, "\x1e")
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestExperimentTablesPinned compares every quick-scale table, time
// columns dropped, with the digests in testdata/tables.sha256. A change
// that moves any experiment output fails it; when the move is
// intended, replace the file with the listing the failure logs.
func TestExperimentTablesPinned(t *testing.T) {
	var got strings.Builder
	for _, run := range quickTables() {
		if run.err != nil {
			t.Fatalf("%s: %v", run.id, run.err)
		}
		for i, tab := range run.tables {
			fmt.Fprintf(&got, "%s/%d %s\n", run.id, i, tableDigest(tab))
		}
	}
	want, err := os.ReadFile("testdata/tables.sha256")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("got %q, want %q", g, w)
			}
		}
		t.Logf("digests of this tree:\n%s", got.String())
	}
}
