// Command bench is the repository benchmark. It drives four workloads
// through the public functions of the dataset, pattern, core, remedy,
// ml, divexplorer, serve and durable packages, checks their outputs,
// and prints the end-to-end metrics of each with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 90, "failed": 0, "metrics": {"op_p50_ms": {"value": 341.2, "unit": "ms"}, ...}}
//
// Usage (from the root of the repository):
//
//	bash bench/run.sh -workload audit-wide -seed 1 -seconds 20
//	bash bench/run.sh -seed 1                  # all four, each in its own process
//	bash bench/run.sh -seed 1 -trace spans.json
//	bash bench/run.sh -compare OLD.jsonl NEW.jsonl
//
// A traced run (-trace 1, or -trace FILE to also write the spans)
// covers every workload whatever -workload says, so it reports every
// per-layer metric, each workload measured for half of -seconds. See
// README.md.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"
)

//go:embed testdata/golden.json
var goldenJSON []byte

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string
	record   string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: audit-wide, remedy-train, serve-mixed or restart (default all, each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "length of each workload's measured phase, in seconds")
	fs.StringVar(&o.trace, "trace", "0", `"0" for the end-to-end run; "1" for the traced run; any other value is a file the traced run also writes its spans to`)
	fs.StringVar(&o.record, "record", "", "append each workload's result as a JSON line to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -record files: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || o.seconds < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	if o.workload != "" {
		if _, ok := lookup(o.workload); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
	}
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case o.trace != "0":
		return runTraced(ctx, o, golden, stdout, stderr)
	case o.workload == "":
		return runAll(ctx, o, stdout, stderr)
	}
	w, _ := lookup(o.workload)
	rc := &runCtx{seed: o.seed, measure: time.Duration(o.seconds) * time.Second, sc: fullScale, golden: golden}
	rep, err := w.run(ctx, rc)
	if rep != nil {
		rep.adjustToHost(w.hostAlpha)
	}
	res := finish(w.name, rep, err, stdout, stderr)
	if err := record(o, w.name, res, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return emit(res, stdout, stderr)
}

// parseGolden flattens testdata/golden.json, whose entries are keyed
// "<scale>/<seed>/<digest key>".
func parseGolden(raw []byte) (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// finish prints a workload's human-readable lines and turns its report
// into a result; a run error makes the result incorrect.
func finish(name string, rep *report, err error, stdout, stderr io.Writer) result {
	res := result{Correct: err == nil, Metrics: map[string]metric{}}
	if rep != nil {
		for _, l := range rep.lines {
			fmt.Fprintf(stdout, "%s: %s\n", name, l)
		}
		res.Attempted, res.Failed, res.Metrics = rep.attempted, rep.failed, rep.metrics
		for _, k := range sortedKeys(rep.metrics) {
			fmt.Fprintf(stdout, "%s: %-40s %14.6g %s\n", name, k, rep.metrics[k].Value, rep.metrics[k].Unit)
		}
		if rep.failed > 0 {
			res.Correct = false
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: FAILED: %v\n", name, err)
	}
	return res
}

// emit prints the result line and returns the exit code.
func emit(res result, stdout, stderr io.Writer) int {
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench: result line:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runRecord is one line of a -record file: a run's result line plus
// its host reference and the times as measured before adjustToHost.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	HostRefMS float64            `json:"host_ref_ms"`
	Raw       map[string]float64 `json:"raw"`
	result
}

func record(o options, workload string, res result, rep *report) error {
	if o.record == "" {
		return nil
	}
	r := runRecord{Workload: workload, Seed: o.seed, result: res}
	if rep != nil {
		r.HostRefMS, r.Raw = median(rep.host), rep.raw
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, string(line)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process, so each one's
// peak RSS is its own, and combines their results.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		res, err := runChild(ctx, exe, o, w.name, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			res.Correct = false
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	return emit(all, stdout, stderr)
}

// runChild runs one workload in a child process, passing its output
// through and parsing its result line.
func runChild(ctx context.Context, exe string, o options, name string, stdout, stderr io.Writer) (result, error) {
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", "0", "-record", o.record)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, errors.Join(fmt.Errorf("no result line: %w", err), scanErr, waitErr)
	}
	if waitErr != nil {
		res.Correct = false
	}
	return res, scanErr
}

// runTraced runs every workload, whatever -workload names, with spans
// around each call into a layer, each for half the measured time and
// set up once, and reports the per-layer metrics.
func runTraced(ctx context.Context, o options, golden map[string]string, stdout, stderr io.Writer) int {
	sc := fullScale
	sc.setups, sc.setupBudget = 1, 0
	all := result{Correct: true, Metrics: map[string]metric{}}
	spans := map[string][]span{}
	for _, w := range workloads {
		rc := &runCtx{seed: o.seed, measure: time.Duration(o.seconds) * time.Second / 2, sc: sc, golden: golden, tr: newTracer()}
		rep, err := w.run(ctx, rc)
		res := finish(w.name, rep, err, stdout, stderr)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		// The traced line carries the per-layer metrics alone; setup_s is
		// end-to-end, and a traced run sets up once.
		delete(res.Metrics, "setup_s")
		for k, m := range res.Metrics {
			all.Metrics[k] = m
		}
		spans[w.name] = rc.tr.spans
	}
	if o.trace != "1" {
		if err := writeSpans(o.trace, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			all.Correct = false
		}
	}
	return emit(all, stdout, stderr)
}

func writeSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
