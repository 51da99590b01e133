package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestEveryRunnerExecutes runs the complete experiment registry in
// quick mode — the wiring regression net for the CLI: every id must
// produce at least one non-empty, renderable table in all three
// formats.
func TestEveryRunnerExecutes(t *testing.T) {
	ids := map[string]bool{}
	for _, run := range quickTables() {
		run := run
		t.Run(run.id, func(t *testing.T) {
			if ids[run.id] {
				t.Fatalf("duplicate experiment id %q", run.id)
			}
			ids[run.id] = true
			if run.desc == "" {
				t.Fatal("missing description")
			}
			tables, err := run.tables, run.err
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("empty table %q", tab.Title)
				}
				for _, f := range []experiments.Format{
					experiments.FormatText, experiments.FormatMarkdown, experiments.FormatCSV,
				} {
					var buf bytes.Buffer
					if err := tab.RenderAs(&buf, f); err != nil {
						t.Fatalf("render %s: %v", f, err)
					}
					if buf.Len() == 0 {
						t.Fatalf("empty %s rendering", f)
					}
				}
			}
		})
	}
	// The registry must cover every paper artifact id.
	for _, want := range []string{
		"tab2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"tab3", "fig9a", "fig9b", "fig9c", "fig9d",
	} {
		if !ids[want] {
			t.Fatalf("registry missing paper artifact %q", want)
		}
	}
	// And the documented extensions.
	for _, want := range []string{"robust", "parity", "ablate", "cost"} {
		if !ids[want] {
			t.Fatalf("registry missing extension %q", want)
		}
	}
}

// TestWriteTables covers the -out persistence path.
func TestWriteTables(t *testing.T) {
	dir := t.TempDir()
	tab := &experiments.Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	if err := writeTables(dir, "demo", []*experiments.Table{tab, tab}, experiments.FormatMarkdown); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/demo.md")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "### t") != 2 {
		t.Fatalf("expected both tables in the file:\n%s", data)
	}
}
