// Package errdiscard is a remedylint fixture for the checked-error
// contract.
package errdiscard

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

var errFixture = errors.New("fixture")

func fails() error            { return errFixture }
func failsWith() (int, error) { return 0, errFixture }

func discards() int {
	_ = fails()         // want "discarded via blank identifier"
	n, _ := failsWith() // want "discarded via blank identifier"
	return n
}

func drops() {
	fails()       // want "unchecked error result from call"
	defer fails() // want "deferred call"
	go fails()    // want "goroutine call"
}

// The comma-ok form's second value is a bool, not an error.
func commaOK(m map[string]int) int {
	v, _ := m["k"]
	return v
}

// Infallible writers are exempt by design: bytes.Buffer,
// strings.Builder, hash.Hash, tabwriter (buffers until the checked
// Flush), and fmt.Fprint* into any of them.
func exempt(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString("buffered")
	var sb strings.Builder
	sb.WriteByte('!')
	fmt.Fprintf(&buf, "%s", sb.String())
	h := sha256.New()
	h.Write(buf.Bytes())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "a\tb")
	return tw.Flush()
}

func waived() {
	_ = fails() //lint:allow errdiscard fixture: demonstrates inline waivers
}

func handled() error {
	if err := fails(); err != nil {
		return err
	}
	return fails()
}
