//go:build ignore

// benchdiff compares two BENCH_*.json files (see scripts/benchjson.go)
// row by row and gates on the work a benchmark does, not on its wall
// time:
//
//	go run scripts/benchdiff.go OLD.json NEW.json
//
// For every row, keyed by package and name, it prints ns/op, allocs/op,
// B/op and the work counters (every other per-op metric) on both sides
// with their change. It exits 1 when allocs/op, nodes_visited/op or
// neighbor_ops/op changes, or when B/op moves by more than 1%; ns/op
// never fails. A row present on one side only is listed and does not
// fail. A file may hold several samples of a row (go test -count N);
// the row then reads as the median sample, and ns/op carries ± half
// the samples' range as its noise band.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

type benchFile struct {
	Pkg        string `json:"pkg"` // files before per-row packages name one here
	Benchmarks []struct {
		Name    string             `json:"name"`
		Pkg     string             `json:"pkg"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
}

// row is one benchmark's samples, by metric.
type row map[string][]float64

func load(path string) (keys []string, rows map[string]row, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	rows = map[string]row{}
	for _, b := range f.Benchmarks {
		pkg := b.Pkg
		if pkg == "" {
			pkg = f.Pkg
		}
		key := pkg + " " + b.Name
		if rows[key] == nil {
			rows[key] = row{}
			keys = append(keys, key)
		}
		for m, v := range b.Metrics {
			rows[key][m] = append(rows[key][m], v)
		}
	}
	return keys, rows, nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// exact reports whether a metric must not change at all.
func exact(m string) bool {
	return m == "allocs/op" || m == "nodes_visited/op" || m == "neighbor_ops/op"
}

// bytesBand is how far B/op may move, as a fraction of the old value.
const bytesBand = 0.01

func duration(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	}
	return fmt.Sprintf("%.3gns", ns)
}

func change(old, new float64) string {
	if old == new {
		return "="
	}
	if old == 0 {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

// timing renders a row's ns/op with its noise band, if it has samples
// to take one from.
func timing(r row) string {
	v := r["ns/op"]
	if len(v) == 0 {
		return "-"
	}
	med := median(v)
	s := duration(med)
	if len(v) > 1 && med > 0 {
		s += fmt.Sprintf(" ±%.1f%%", 50*(slices.Max(v)-slices.Min(v))/med)
	}
	return s
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/benchdiff.go OLD.json NEW.json")
		os.Exit(2)
	}
	oldKeys, oldRows, err := load(os.Args[1])
	if err == nil {
		var newKeys []string
		var newRows map[string]row
		newKeys, newRows, err = load(os.Args[2])
		if err == nil {
			os.Exit(diff(oldKeys, oldRows, newKeys, newRows))
		}
	}
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// diff prints the comparison and returns the exit status.
func diff(oldKeys []string, oldRows map[string]row, newKeys []string, newRows map[string]row) int {
	keys := slices.Clone(oldKeys)
	for _, k := range newKeys {
		if oldRows[k] == nil {
			keys = append(keys, k)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "package\tbenchmark\tns/op\tallocs/op\tB/op\twork counters\tverdict")
	failed := 0
	for _, k := range keys {
		pkg, name, _ := strings.Cut(k, " ")
		pkg = strings.TrimPrefix(strings.TrimPrefix(pkg, "repro"), "/internal/")
		if pkg == "" {
			pkg = "."
		}
		o, n := oldRows[k], newRows[k]
		switch {
		case o == nil:
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\tnew row\n", pkg, name, timing(n), count(n, "allocs/op"), count(n, "B/op"))
			continue
		case n == nil:
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\tgone\n", pkg, name, timing(o), count(o, "allocs/op"), count(o, "B/op"))
			continue
		}
		var bad []string
		cell := func(m string) string {
			ov, nv := o[m], n[m]
			if len(ov) == 0 && len(nv) == 0 {
				return "-"
			}
			if len(ov) == 0 || len(nv) == 0 {
				if exact(m) || m == "B/op" {
					bad = append(bad, m+" on one side")
				}
				return count(o, m) + " → " + count(n, m)
			}
			a, b := median(ov), median(nv)
			if exact(m) && a != b || m == "B/op" && math.Abs(b-a) > bytesBand*a {
				bad = append(bad, m)
			}
			d := change(a, b)
			if exact(m) && a != b {
				d = fmt.Sprintf("%+.0f", b-a)
			}
			return fmt.Sprintf("%s → %s (%s)", count(o, m), count(n, m), d)
		}
		ns := timing(o) + " → " + timing(n)
		if len(o["ns/op"]) > 0 && len(n["ns/op"]) > 0 {
			ns += " (" + change(median(o["ns/op"]), median(n["ns/op"])) + ")"
		}
		allocs, bytes := cell("allocs/op"), cell("B/op")
		var counters []string
		for _, m := range metricNames(o, n) {
			counters = append(counters, m+" "+cell(m))
		}
		verdict := "ok"
		if len(bad) > 0 {
			verdict = "FAIL: " + strings.Join(bad, ", ")
			failed++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", pkg, name, ns, allocs, bytes, strings.Join(counters, "; "), verdict)
	}
	tw.Flush()
	fmt.Printf("%d rows compared, %d failed\n", len(keys), failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// count renders a row's median of metric m as an integer, or "-".
func count(r row, m string) string {
	if len(r[m]) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", median(r[m]))
}

// metricNames lists the work counters of either row: every metric but
// time, allocation and throughput.
func metricNames(o, n row) []string {
	var names []string
	for _, r := range []row{o, n} {
		for m := range r {
			switch m {
			case "ns/op", "allocs/op", "B/op", "MB/s":
			default:
				if !slices.Contains(names, m) {
					names = append(names, m)
				}
			}
		}
	}
	slices.Sort(names)
	return names
}
