package analysis

import (
	"fmt"
	"io"
)

// WriteText renders the result in the conventional compiler-style
// file:line:col format, findings first, then warnings, then a one-line
// summary.
func WriteText(w io.Writer, res *Result) error {
	for _, f := range res.Findings {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	for _, f := range res.Warnings {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s (warning): %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message); err != nil {
			return err
		}
	}
	for _, e := range res.TypeErrors {
		if _, err := fmt.Fprintf(w, "typecheck: %s\n", e); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "remedylint: %d finding(s), %d warning(s), %d suppressed\n",
		len(res.Findings), len(res.Warnings), res.Suppressed)
	return err
}
