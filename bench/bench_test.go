package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this build (full scale takes about a minute)")

func testGolden(t *testing.T) map[string]string {
	t.Helper()
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func toyRun(t *testing.T, w workload, seed int64, golden map[string]string, tr *tracer) *report {
	t.Helper()
	rc := &runCtx{seed: seed, measure: 600 * time.Millisecond, sc: toyScale, golden: golden, tr: tr}
	rep, err := w.run(context.Background(), rc)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("%s seed %d: %d attempted, %d failed", w.name, seed, rep.attempted, rep.failed)
	}
	return rep
}

// spec reads the metric names BENCHMARK.json lists.
func spec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Workload []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range s.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	if len(s.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workload), len(workloads))
	}
	for i, w := range s.Workload {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	return endToEnd, perLayer
}

// Every workload runs at toy scale, passes its output checks (golden
// digests included) and reports every end-to-end metric BENCHMARK.json
// lists; the traced runs together report exactly its per-layer metrics.
func TestWorkloadsAtToyScale(t *testing.T) {
	endToEnd, perLayer := spec(t)
	golden := testGolden(t)
	traced := map[string]bool{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := toyRun(t, w, 1, golden, nil)
			for _, name := range endToEnd {
				m, ok := rep.metrics[name]
				if !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", name, m)
				}
			}
			rep = toyRun(t, w, 2, golden, newTracer())
			for name := range rep.metrics {
				traced[name] = true
			}
		})
	}
	delete(traced, "setup_s")
	want := map[string]bool{}
	for _, name := range perLayer {
		want[name] = true
		if !traced[name] {
			t.Errorf("per-layer metric %s is not reported by the traced runs", name)
		}
	}
	for name := range traced {
		if !want[name] {
			t.Errorf("traced runs report %s, which BENCHMARK.json does not list", name)
		}
	}
}

// A digest that differs from the committed golden one fails the run.
func TestCorruptGoldenFails(t *testing.T) {
	golden := testGolden(t)
	for _, key := range []string{"toy/1/audit-wide/ibs", "toy/1/remedy-train/MS/NN/pred"} {
		bad := map[string]string{}
		for k, v := range golden {
			bad[k] = v
		}
		if _, ok := bad[key]; !ok {
			t.Fatalf("golden.json has no %s", key)
		}
		bad[key] = "0000000000000000"
		w, _ := lookup(strings.Split(key, "/")[2])
		rc := &runCtx{seed: 1, measure: time.Millisecond, sc: toyScale, golden: bad}
		if _, err := w.run(context.Background(), rc); err == nil || !strings.Contains(err.Error(), "golden") {
			t.Errorf("corrupted %s: run error = %v, want a golden mismatch", key, err)
		}
	}
}

func TestRunFlags(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"-workload", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-compare", "only-one"}, &out, &errb); code != 2 {
		t.Errorf("-compare with one file: exit %d, want 2", code)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		cur  []float64
		want string
	}{
		{base, "unchanged"},
		{shift(0.8), "improved"},
		{shift(1.2), "regressed"},
		{shift(1.03), "unchanged"},
	} {
		if got, _ := verdict(base, c.cur, true, 0.1); got != c.want {
			t.Errorf("verdict(x%.2f) = %s, want %s", c.cur[0]/base[0], got, c.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got, _ := verdict(base, noisy, true, 0.1); got != "unresolved" {
		t.Errorf("verdict(noisy) = %s, want unresolved", got)
	}
}

// TestUpdateGolden rewrites testdata/golden.json with -update.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/golden.json")
	}
	g := map[string]string{}
	for _, sc := range []scale{toyScale, fullScale} {
		for _, seed := range []int64{1, 2} {
			for _, name := range []string{"audit-wide", "remedy-train"} {
				w, _ := lookup(name)
				rep, err := w.run(context.Background(), &runCtx{seed: seed, measure: time.Millisecond, sc: sc})
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range rep.digests {
					g[fmt.Sprintf("%s/%d/%s", sc.name, seed, k)] = v
				}
			}
		}
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d golden digests", len(g))
}

func TestAdjustToHost(t *testing.T) {
	rep := newReport()
	rep.set("op_p50_ms", 200, "ms")
	rep.set("peak_rss_mb", 30, "MiB")
	rep.host = []float64{2 * hostNominalMS, 2 * hostNominalMS, 7}
	rep.adjustToHost(0.5) // the host ran at half speed
	if got, want := rep.metrics["op_p50_ms"].Value, 200/math.Sqrt2; math.Abs(got-want) > 1e-9 {
		t.Errorf("op_p50_ms = %v, want %v", got, want)
	}
	if rep.raw["op_p50_ms"] != 200 || rep.metrics["peak_rss_mb"].Value != 30 {
		t.Errorf("raw = %v, peak_rss_mb = %v; want 200 kept and memory untouched", rep.raw, rep.metrics["peak_rss_mb"])
	}
}
