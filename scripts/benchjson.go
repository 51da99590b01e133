//go:build ignore

// benchjson converts `go test -bench` output on stdin into the
// committed BENCH_*.json artifact format: one object per benchmark
// with its package and every reported metric (ns/op, B/op, allocs/op,
// and custom b.ReportMetric series like nodes_visited/op), plus the
// run's environment header. Run via scripts/bench.sh.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type benchmark struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	rep := report{Benchmarks: []benchmark{}}
	// go test prints a "pkg:" header before each package's rows.
	var pkg string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			fields := strings.Fields(line)
			if len(fields) < 4 {
				continue
			}
			iters, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				continue
			}
			b := benchmark{
				Name:       strings.SplitN(fields[0], "-", 2)[0],
				Pkg:        pkg,
				Iterations: iters,
				Metrics:    map[string]float64{},
			}
			for i := 2; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					continue
				}
				b.Metrics[fields[i+1]] = v
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
