package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable line: the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run produces: the op accounting, the
// metrics for the result line, and the human-readable lines printed
// above it.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	lines             []string
	// digests holds the output digests a run is checked against, keyed
	// as in testdata/golden.json.
	digests map[string]string
	// host holds hostRef samples taken during the run; raw keeps the
	// end-to-end times as measured when adjustToHost rescales them.
	host     []float64
	lastHost time.Time
	raw      map[string]float64
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, digests: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// hostRef times a fixed unit of work shaped like the pipeline's
// counting: 400,000 increments into a 50,000-key hash map. This host is
// shared and its speed drifts by up to 2x over minutes; timing the same
// work beside a workload's ops shows how fast the host ran meanwhile.
func hostRef() float64 {
	t0 := time.Now()
	m := make(map[uint64]int32, 1024)
	x := uint64(88172645463325252)
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%50_000]++
	}
	return msSince(t0)
}

// sampleHost takes a hostRef sample, at most one every 500 ms.
func (r *report) sampleHost() {
	if time.Since(r.lastHost) < 500*time.Millisecond {
		return
	}
	r.host = append(r.host, hostRef())
	r.lastHost = time.Now()
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// tailWindow is how many consecutive ops one op_tail_ms window holds;
// ten samples beyond a window's tail make it the 95th percentile.
const tailWindow = 200

// latency reports op_p50_ms and op_tail_ms from op latencies in ms, in
// op order. The tail is the highest percentile with at least ten
// samples beyond it, taken in each window of tailWindow ops (a shorter
// run is one window), and reported as the median over the windows: a
// run's one longest stall does not decide it.
func (r *report) latency(ms []float64) {
	windows := max(len(ms)/tailWindow, 1)
	size := len(ms) / windows
	var tails []float64
	var pct float64
	for w := 0; w < windows; w++ {
		chunk := ms[w*size : (w+1)*size]
		if w == windows-1 {
			chunk = ms[w*size:]
		}
		var tv float64
		tv, pct = tail(sorted(chunk))
		tails = append(tails, tv)
	}
	p50, tv := median(ms), median(tails)
	r.set("op_p50_ms", p50, "ms")
	r.set("op_tail_ms", tv, "ms")
	r.printf("op latency: p50 %.3f ms over %d ops; tail %.3f ms, the median over %d windows of ~%d ops of each window's p%.1f",
		p50, len(ms), tv, windows, size, pct)
}

// hostNominalMS is hostRef's median on this machine while its host is
// quiet: the host speed every run's end-to-end times are reported at.
const hostNominalMS = 9.5

// adjustToHost reports the run's end-to-end times at the nominal host
// speed. The host is shared, and what runs beside this VM slows it by
// up to 2x for minutes at a time; hostRef, timed beside the ops,
// measures by how much. A workload's times scale as hostRef^alpha,
// alpha being how strongly it slows with the host (fitted per workload,
// see README.md), so they are multiplied by
// (hostNominalMS / median hostRef)^alpha. raw keeps the measured values.
func (r *report) adjustToHost(alpha float64) {
	if len(r.host) == 0 {
		return
	}
	ref := median(r.host)
	f := math.Pow(hostNominalMS/ref, alpha)
	r.raw = map[string]float64{}
	for _, k := range []string{"setup_s", "op_p50_ms", "op_tail_ms"} {
		if m, ok := r.metrics[k]; ok {
			r.raw[k] = m.Value
			r.set(k, m.Value*f, m.Unit)
		}
	}
	r.printf("host reference %.3f ms (median of %d; nominal %.1f ms): the times above are as measured, the metrics below are scaled by %.4f",
		ref, len(r.host), hostNominalMS, f)
}

// peakRSS reports the process's peak resident set as peak_rss_mb.
func (r *report) peakRSS() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return
	}
	r.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MiB") // Linux reports KiB
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of sorted s by linear interpolation
// between closest ranks; an empty sample gives 0.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	switch {
	case lo >= len(s)-1 || frac == 0:
		return s[lo]
	case math.IsInf(s[lo+1], 1):
		return math.Inf(1) // a refused request never meets a limit
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailIndex is the index in a sorted sample of n of the highest value
// with at least ten samples beyond it; with ten or fewer samples there
// is none, and the median stands in.
func tailIndex(n int) int {
	if n <= 10 {
		return (n - 1) / 2
	}
	return n - 11
}

// tail returns the op_tail value of sorted s and its percentile.
func tail(s []float64) (value, pct float64) {
	i := tailIndex(len(s))
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// quartiles returns the three cut points of sorted s exactly as
// Python's statistics.quantiles(s, n=4) does (the "exclusive" method),
// which is how the benchmark's spread is judged.
func quartiles(s []float64) [3]float64 {
	var q [3]float64
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// memDelta measures allocation and GC work between two points.
type memDelta struct{ allocMB, allocs, gcs float64 }

type memMark runtime.MemStats

func markMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (m *memMark) since() memDelta {
	now := markMem()
	return memDelta{
		allocMB: float64(now.TotalAlloc-m.TotalAlloc) / (1 << 20),
		allocs:  float64(now.Mallocs - m.Mallocs),
		gcs:     float64(now.NumGC - m.NumGC),
	}
}

// runtimePerOp records the runtime.* per-layer metrics of a workload.
func (r *report) runtimePerOp(workload string, d memDelta, ops int) {
	n := float64(max(ops, 1))
	r.set("runtime.alloc_mb_per_op."+workload, d.allocMB/n, "MiB")
	r.set("runtime.allocs_per_op."+workload, d.allocs/n, "count")
	r.set("runtime.gc_cycles_per_op."+workload, d.gcs/n, "count")
}

// overhead records obs.trace_overhead_pct: the traced ops' median
// latency over the untraced ops' median, minus one.
func (r *report) overhead(workload string, untraced, traced []float64) {
	pct := 100 * (median(traced)/median(untraced) - 1)
	r.set("obs.trace_overhead_pct."+workload, pct, "%")
	r.printf("tracing overhead: %+.2f%% (median of %d traced vs %d untraced ops)", pct, len(traced), len(untraced))
}

// maxSetups caps how many times a cheap set-up repeats.
const maxSetups = 25

// setupMedian runs setup at least sc.setups times, and on until
// sc.setupBudget of set-up time has passed, and reports the median
// duration in seconds. It returns the last instance; earlier ones are
// torn down with teardown as soon as the next one exists.
func setupMedian[T any](ctx context.Context, sc scale, setup func(context.Context) (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	var secs []float64
	total := 0.0
	for i := 0; i < sc.setups || (total < sc.setupBudget.Seconds() && i < maxSetups); i++ {
		runtime.GC() // each set-up starts from the same heap state
		start := time.Now()
		next, err := setup(ctx)
		if err != nil {
			return inst, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		total += secs[i]
		if i > 0 {
			teardown(inst)
		}
		inst = next
	}
	return inst, median(secs), nil
}

// span is one timed interval in a traced run. Spans of one op share
// Op; Parent is the ID of the enclosing span, or -1 for an op's root.
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps a traced run's spans in memory. The benchmark records
// them around its own calls into each layer; the program under test
// is not instrumented. A nil *tracer records nothing, so traced and
// untraced ops run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) float64 { return float64(tm.Sub(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span begun as id.
func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

// endAt closes the span id at the given time.
func (t *tracer) endAt(id int, tm time.Time) {
	if t == nil || id < 0 {
		return
	}
	at := t.at(tm)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = at
}

// add records a span whose bounds were observed elsewhere, such as the
// server's job timestamps.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	return len(t.spans) - 1
}

// selfTimes sums each layer's self time, in ms: a span's duration
// minus the part of it its child spans cover. The layer is the span
// name up to its first dot.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := math.Max(k.Start, reach), math.Min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		layer := s.Name
		for i := range layer {
			if layer[i] == '.' {
				layer = layer[:i]
				break
			}
		}
		out[layer] += s.End - s.Start - covered
	}
	return out
}

// printSelfTimes adds each layer's self time per op to r, largest
// first, with its share of the total.
func (r *report) printSelfTimes(t *tracer, ops int) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	total := 0.0
	for l, v := range self {
		layers = append(layers, l)
		total += v
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		r.printf("self time per op: %-12s %10.3f ms  %5.1f%%", l, self[l]/float64(max(ops, 1)), 100*self[l]/total)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
