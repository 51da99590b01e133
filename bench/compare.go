package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison uses.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or its parent.
func loadSpec() (*benchmarkSpec, error) {
	var errs []error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s benchmarkSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, errors.Join(errs...)
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict applies the rule for comparing two sets of runs. The change
// improved a metric when it wins at least nine tenths of the pairs and
// the medians differ by more than the old runs' quartile spread. It
// regressed when its median is worse by more than the bound. When
// either side's spread is wider than the bound the comparison cannot
// tell, unless every new run beats every old one.
func verdict(old, cur []float64, lowerBetter bool, bound float64) (string, float64) {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	n := min(len(old), len(cur))
	wins := 0
	for i := 0; i < n; i++ {
		if better(cur[i], old[i]) {
			wins++
		}
	}
	share := float64(wins) / float64(max(n, 1))
	so, sc := sorted(old), sorted(cur)
	qo, qc := quartiles(so), quartiles(sc)
	mo, mc := qo[1], qc[1]
	spread := math.Max((qo[2]-qo[0])/math.Abs(mo), (qc[2]-qc[0])/math.Abs(mc))
	worse := (mc - mo) / math.Abs(mo)
	if !lowerBetter {
		worse = -worse
	}
	// Every new run beats every old one: the worst new beats the best old.
	allBetter := better(sc[len(sc)-1], so[0])
	if !lowerBetter {
		allBetter = better(sc[0], so[len(so)-1])
	}
	switch {
	case share >= 0.9 && math.Abs(mc-mo) > qo[2]-qo[0] && worse < 0:
		return "improved", share
	case spread > bound && !allBetter:
		return "unresolved", share
	case worse > bound:
		return "regressed", share
	}
	return "unchanged", share
}

// runCompare compares two -record files metric by metric and workload
// by workload, and exits non-zero when any pair regressed or either
// side has failed runs.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -compare OLD NEW")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench: read BENCHMARK.json:", err)
		return 2
	}
	sets := [2]map[string][]runRecord{}
	for i, p := range args {
		recs, err := readRecords(p)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sets[i] = map[string][]runRecord{}
		for _, r := range recs {
			sets[i][r.Workload] = append(sets[i][r.Workload], r)
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-13s %-15s %32s %32s %6s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "won", "verdict")
	for _, w := range workloads {
		old, cur := sets[0][w.name], sets[1][w.name]
		if len(old) == 0 || len(cur) == 0 {
			continue
		}
		for i, side := range [][]runRecord{old, cur} {
			for _, r := range side {
				if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(stdout, "%-13s %s run (seed %d) failed its checks or ops\n", w.name, args[i], r.Seed)
					code = 1
				}
			}
		}
		for _, m := range spec.EndToEnd {
			o, c := values(old, m.Name), values(cur, m.Name)
			if len(o) == 0 || len(c) == 0 {
				continue
			}
			v, share := verdict(o, c, m.Better == "lower", m.Bound)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-13s %-15s %32s %32s %5.0f%%  %s (bound %.0f%%)\n", w.name, m.Name, summary(o), summary(c), 100*share, v, 100*m.Bound)
		}
	}
	return code
}

func values(recs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles(s)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
