// Command remedyctl runs the paper's pipeline end-to-end on a CSV
// dataset: identify the Implicit Biased Set, remedy it with a chosen
// pre-processing technique, and audit a downstream classifier before
// and after.
//
// Usage:
//
//	# Identify the IBS of a CSV (label column "two_year_recid",
//	# protected attributes age/race/sex):
//	remedyctl -mode identify -input compas.csv -target two_year_recid \
//	    -protected age,race,sex -tauc 0.1
//
//	# Remedy and write the repaired training data:
//	remedyctl -mode remedy -input compas.csv -target two_year_recid \
//	    -protected age,race,sex -technique PS -output repaired.csv
//
//	# Full audit: train a classifier on original vs remedied data and
//	# compare fairness indices on a held-out split:
//	remedyctl -mode audit -input compas.csv -target two_year_recid \
//	    -protected age,race,sex -model DT
//
//	# Attribute the unfairness of the worst subgroups to their items
//	# (Shapley values over sub-patterns):
//	remedyctl -mode attribute -dataset propublica -model DT
//
// Without -input, -dataset selects a built-in synthetic dataset.
// -mode identify accepts -tree for a Fig. 1-style hierarchy view, and
// -mode audit accepts -save-model to export the trained model as JSON.
//
// With -serve-url, -mode status renders a live fleet table from one
// round-trip to any node — per-node role, term, replication lag, queue
// depth, and job outcomes, plus fleet-wide p50/p99 latency per HTTP
// route estimated from the merged histograms:
//
//	remedyctl -mode status -serve-url http://localhost:8081
//
// With -serve-url the identify/remedy/audit modes run remotely: the
// dataset is registered with a running remedyd, the mode is submitted
// as an async job built from the same flags, and the CLI polls the
// job (interval -poll) until completion, printing the JSON result.
// Ctrl-C cancels the remote job before exiting. Transient server
// failures — a full queue (429), 5xx, transport errors — are retried
// with deterministic backoff, logging "queue full, retrying
// (attempt n/k)"; the CLI exits non-zero only once the retry budget
// is exhausted.
//
// Every mode honors -timeout and SIGINT: on expiry or Ctrl-C the
// pipeline stops at the next cooperative checkpoint and -mode remedy
// reports the partial remediation completed so far before exiting
// non-zero.
//
// Observability: -v / -vv raise the structured log level (info /
// debug), -trace-out <file> dumps the pipeline's span tree as JSON,
// -metrics-out <file> dumps the metrics registry (counters such as
// identify.nodes_visited and remedy.samples_added), and -pprof <addr>
// serves net/http/pprof plus an expvar view of the live metrics on
// /debug/vars for profiling long runs. An interrupted run still
// flushes whatever trace and metrics it accumulated.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" //lint:allow panicgate sanctioned: registers /debug/pprof for the opt-in -pprof server
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/divexplorer"
	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fatal(err)
	}
}

// run parses argv and dispatches to the selected mode. Cancelling ctx
// (SIGINT in main, or a test cancel) aborts the pipeline at its next
// cooperative checkpoint; -timeout layers a deadline on top.
func run(ctx context.Context, argv []string, errw io.Writer) error {
	fs := flag.NewFlagSet("remedyctl", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		mode       = fs.String("mode", "audit", "identify | remedy | audit | attribute | status")
		input      = fs.String("input", "", "input CSV (header row; label column 0/1)")
		target     = fs.String("target", "", "label column name (required with -input)")
		protected  = fs.String("protected", "", "comma-separated protected attribute names (required with -input)")
		dsName     = fs.String("dataset", "propublica", "built-in dataset when -input is absent")
		tauC       = fs.Float64("tauc", 0.1, "imbalance threshold τ_c")
		tFlag      = fs.Int("T", 1, "neighboring-region distance threshold")
		k          = fs.Int("k", core.DefaultMinSize, "minimum region size")
		scopeFlag  = fs.String("scope", "lattice", "identification scope: lattice | leaf | top")
		tech       = fs.String("technique", "PS", "remedy technique: PS | US | DP | MS")
		model      = fs.String("model", "DT", "downstream model for audit: DT | RF | LG | NN")
		output     = fs.String("output", "", "output CSV for -mode remedy")
		saveModel  = fs.String("save-model", "", "in audit mode, save the remedied-data model as JSON")
		tree       = fs.Bool("tree", false, "in identify mode, render the hierarchy view instead of a flat table")
		seed       = fs.Int64("seed", 1, "random seed")
		timeout    = fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		verbose    = fs.Bool("v", false, "info-level structured logging to stderr")
		veryVerb   = fs.Bool("vv", false, "debug-level structured logging to stderr")
		traceOut   = fs.String("trace-out", "", "write the pipeline's span tree as JSON to this file")
		metricsOut = fs.String("metrics-out", "", "write a JSON metrics snapshot to this file")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
		serveURL   = fs.String("serve-url", "", "submit the job to a running remedyd at this base URL instead of running locally")
		pollEvery  = fs.Duration("poll", 200*time.Millisecond, "status poll interval with -serve-url")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Fail fast on configuration before any heavy work: scope, technique,
	// and — for -mode remedy — that the output path is actually writable,
	// so a long remediation cannot die at the final write. The trace and
	// metrics paths get the same upfront check.
	scope, err := core.ParseScope(*scopeFlag)
	if err != nil {
		return err
	}
	technique, err := remedy.ParseTechnique(*tech)
	if err != nil {
		return err
	}
	if *mode == "remedy" && *output != "" {
		if err := checkWritable(*output); err != nil {
			return err
		}
	}
	for _, p := range []string{*traceOut, *metricsOut} {
		if p != "" {
			if err := checkWritable(p); err != nil {
				return err
			}
		}
	}

	// Observability wiring: logger level from -v/-vv, a metrics registry
	// always (snapshotting an idle registry is free), a tracer only when
	// a span dump was requested.
	level := obs.LevelWarn
	if *verbose {
		level = obs.LevelInfo
	}
	if *veryVerb {
		level = obs.LevelDebug
	}
	lg := obs.NewLogger(errw, level)
	ctx = obs.WithLogger(ctx, lg)
	metrics := obs.NewRegistry()
	ctx = obs.WithMetrics(ctx, metrics)
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr, metrics, lg); err != nil {
			return err
		}
	}

	if *mode == "status" {
		if *serveURL == "" {
			return fmt.Errorf("-mode status requires -serve-url")
		}
		return runStatus(ctx, *serveURL, *seed)
	}

	d, err := load(*input, *target, *protected, *dsName, *seed)
	if err != nil {
		return err
	}
	cfg := core.Config{TauC: *tauC, T: *tFlag, MinSize: *k, Scope: scope}

	if *serveURL != "" {
		return runRemote(ctx, *serveURL, *mode, d, *dsName, cfg, technique, *model, *seed, *pollEvery)
	}

	ctx, root := obs.StartSpan(ctx, "remedyctl."+*mode)
	// Flush trace and metrics on every exit path — including timeouts and
	// SIGINT — so an interrupted run still leaves a (partial but valid)
	// record of the work it did.
	defer func() {
		root.End()
		if tracer != nil && *traceOut != "" {
			if werr := writeFileWith(*traceOut, tracer.WriteJSON); werr != nil {
				lg.Error("trace dump failed", "path", *traceOut, "err", werr)
			} else {
				lg.Info("trace written", "path", *traceOut)
			}
		}
		if *metricsOut != "" {
			if werr := writeFileWith(*metricsOut, metrics.WriteJSON); werr != nil {
				lg.Error("metrics dump failed", "path", *metricsOut, "err", werr)
			} else {
				lg.Info("metrics written", "path", *metricsOut)
			}
		}
	}()

	switch *mode {
	case "identify":
		return runIdentify(ctx, d, cfg, *tree)
	case "remedy":
		return runRemedy(ctx, d, cfg, technique, *output, *seed, errw)
	case "audit":
		return runAudit(ctx, d, cfg, technique, ml.ModelKind(*model), *saveModel, *seed)
	case "attribute":
		return runAttribute(ctx, d, ml.ModelKind(*model), *seed)
	}
	return fmt.Errorf("unknown mode %q", *mode)
}

// pipelineMetrics holds the current run's registry; /debug/vars and
// /metrics read through it so tests that call run repeatedly always
// see the live registry. The HTTP publication itself is shared with
// remedyd via the obs helpers (PublishExpvar, SnapshotHandler).
var (
	pipelineMetrics    atomic.Pointer[obs.Registry]
	metricsHandlerOnce sync.Once
)

// servePprof exposes net/http/pprof, the live metrics registry as
// expvar "pipeline" on /debug/vars, and a JSON snapshot on /metrics,
// on addr, in the background, for the lifetime of the process. The
// listener is bound synchronously so a bad address fails the run up
// front.
func servePprof(addr string, m *obs.Registry, lg *obs.Logger) error {
	pipelineMetrics.Store(m)
	obs.PublishExpvar("pipeline", pipelineMetrics.Load)
	metricsHandlerOnce.Do(func() {
		http.Handle("/metrics", obs.SnapshotHandler(pipelineMetrics.Load))
	})
	srv := &http.Server{Addr: addr, Handler: http.DefaultServeMux}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	lg.Info("pprof serving", "addr", ln.Addr().String())
	//lint:allow goroleak debug server lives for the whole process; it dies with it
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			lg.Error("pprof server stopped", "err", err)
		}
	}()
	return nil
}

// runStatus renders the fleet table: one GET /metrics/fleet against
// any node (a follower forwards it to the leader, which fans out to
// /cluster/obs on every peer), so the whole view costs the client one
// round-trip. Per-node rows come from each node's own registry and
// health; the route-latency table reads the merged histograms, so its
// p50/p99 are fleet-wide quantiles estimated from summed buckets.
func runStatus(ctx context.Context, baseURL string, seed int64) error {
	client := serve.NewRetryingClient(baseURL, serve.RetryPolicy{Seed: seed})
	fo, err := client.FleetObs(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d node(s), leader %s, term %d\n", len(fo.Nodes), orDash(fo.Leader), fo.Term)

	nodes := &experiments.Table{
		Columns: []string{"Node", "Role", "Term", "Lag", "Queued", "Running", "Done", "Failed", "Cancelled", "Stolen", "SnapAge", "WAL kB"},
	}
	for _, n := range fo.Nodes {
		if n.Err != "" {
			nodes.Rows = append(nodes.Rows, []string{
				orDash(n.NodeID), "unreachable", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-",
			})
			continue
		}
		// SnapAge counts records appended since the node's last snapshot
		// horizon (its pending compaction debt); WAL kB is the journal
		// file's current size. Both come from the node's own health.
		snapAge, walKB := "-", "-"
		if st := n.Health.Store; st != nil {
			snapAge = fmt.Sprint(st.AgeRecords)
			walKB = fmt.Sprintf("%.1f", float64(st.JournalBytes)/1024)
		}
		c := n.Metrics.Counters
		nodes.Rows = append(nodes.Rows, []string{
			orDash(n.NodeID), orDash(n.Role), fmt.Sprint(n.Term), fmt.Sprint(n.Lag),
			fmt.Sprint(n.Health.Queued), fmt.Sprint(n.Health.Running),
			fmt.Sprint(c["serve.jobs_done"]), fmt.Sprint(c["serve.jobs_failed"]),
			fmt.Sprint(c["serve.jobs_cancelled"]), fmt.Sprint(c["serve.jobs_stolen"]),
			snapAge, walKB,
		})
	}
	if err := nodes.Render(os.Stdout); err != nil {
		return err
	}

	// Per-tenant admission rows come from the leader's health (the
	// leader owns the queue); in single-node mode the one node serves.
	var tenantRows []serve.TenantHealth
	for _, n := range fo.Nodes {
		if n.Err != "" || len(n.Health.Tenants) == 0 {
			continue
		}
		if tenantRows == nil || n.Role == "leader" {
			tenantRows = n.Health.Tenants
		}
	}
	if len(tenantRows) > 0 {
		tenants := &experiments.Table{
			Columns: []string{"Tenant", "Weight", "Queued", "Submitted", "Done", "Failed", "Rejected", "Throttled", "CacheHits"},
		}
		for _, tr := range tenantRows {
			tenants.Rows = append(tenants.Rows, []string{
				tr.Name, fmt.Sprint(tr.Weight), fmt.Sprint(tr.Queued),
				fmt.Sprint(tr.Submitted), fmt.Sprint(tr.Done), fmt.Sprint(tr.Failed),
				fmt.Sprint(tr.Rejected), fmt.Sprint(tr.Throttled), fmt.Sprint(tr.CacheHits),
			})
		}
		fmt.Println()
		if err := tenants.Render(os.Stdout); err != nil {
			return err
		}
	}

	routes := &experiments.Table{Columns: []string{"Route", "Requests", "p50 ms", "p99 ms"}}
	for _, name := range sortedNames(fo.Merged.Histograms) {
		base, labels := obs.SplitLabels(name)
		// Only the per-route series (the unlabeled family is the
		// handler-wide aggregate), and only routes that saw traffic.
		if base != "serve.http_duration_ms" || !strings.HasPrefix(labels, `{route="`) {
			continue
		}
		h := fo.Merged.Histograms[name]
		if h.Count == 0 {
			continue
		}
		route := strings.TrimSuffix(strings.TrimPrefix(labels, `{route="`), `"}`)
		routes.Rows = append(routes.Rows, []string{
			route, fmt.Sprint(h.Count),
			fmt.Sprintf("%.2f", h.Quantile(0.50)), fmt.Sprintf("%.2f", h.Quantile(0.99)),
		})
	}
	if len(routes.Rows) == 0 {
		return nil
	}
	fmt.Println()
	return routes.Render(os.Stdout)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// runRemote is the -serve-url client mode: it registers the loaded
// dataset with a running remedyd (streamed as CSV), submits the
// selected mode as a job built from the same flags the local path
// uses, polls until the job is terminal, and prints the JSON result.
// Cancelling ctx (SIGINT, -timeout) cancels the remote job too before
// returning, so an interrupted client does not leave work running
// server-side.
func runRemote(ctx context.Context, baseURL, mode string, d *dataset.Dataset, name string, cfg core.Config, tech remedy.Technique, model string, seed int64, poll time.Duration) error {
	if mode != "identify" && mode != "remedy" && mode != "audit" {
		return fmt.Errorf("-serve-url supports identify, remedy, and audit, not %q", mode)
	}
	// Transient server trouble — queue backpressure (429), 5xx, transport
	// errors — is retried with deterministic backoff before the CLI gives
	// up; the run only exits non-zero once the whole budget is spent.
	lg := obs.LoggerFrom(ctx)
	client := serve.NewRetryingClient(baseURL, serve.RetryPolicy{
		Seed: seed,
		OnRetry: func(info serve.RetryInfo) {
			if info.Status == http.StatusTooManyRequests {
				lg.Warn("queue full, retrying",
					"attempt", fmt.Sprintf("%d/%d", info.Attempt, info.MaxAttempts),
					"delay", info.Delay)
				return
			}
			lg.Warn("request failed, retrying",
				"attempt", fmt.Sprintf("%d/%d", info.Attempt, info.MaxAttempts),
				"delay", info.Delay, "err", info.Err)
		},
	})
	var protected []string
	for _, a := range d.Schema.Attrs {
		if a.Protected {
			protected = append(protected, a.Name)
		}
	}

	// Stream the dataset up without materializing the CSV in memory.
	pr, pw := io.Pipe()
	//lint:allow goroleak bounded by the upload: UploadDataset drains or closes pr, which unblocks the pipe writer either way
	go func() { pw.CloseWithError(d.WriteCSV(pw)) }()
	info, err := client.UploadDataset(ctx, pr, name, d.Schema.Target, protected)
	if err != nil {
		return err
	}
	fmt.Printf("registered dataset %s (%d rows, %d attrs)\n", info.ID, info.Rows, info.Attrs)

	st, err := client.SubmitJob(ctx, serve.JobRequest{
		Kind:      mode,
		DatasetID: info.ID,
		TauC:      cfg.TauC,
		T:         cfg.T,
		MinSize:   cfg.MinSize,
		Scope:     cfg.Scope.String(),
		Technique: string(tech),
		Model:     model,
		Seed:      seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s as %s\n", mode, st.ID)

	st, werr := client.Wait(ctx, st.ID, poll)
	if werr != nil {
		// Interrupted locally: cancel the remote job with a fresh
		// short-lived context (ours is already dead).
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, cerr := client.Cancel(cctx, st.ID); cerr == nil {
			fmt.Fprintf(os.Stderr, "remedyctl: interrupted, cancelled %s\n", st.ID)
		}
		return werr
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	var raw json.RawMessage
	if err := client.Result(ctx, st.ID, &raw); err != nil {
		return err
	}
	var pretty map[string]any
	if err := json.Unmarshal(raw, &pretty); err != nil {
		return err
	}
	out, err := json.MarshalIndent(pretty, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "remedyctl:", err)
	os.Exit(1)
}

// checkWritable verifies the output path can be created or opened for
// writing. The file is created empty if absent; existing contents are
// left untouched until the remedied dataset is actually written.
func checkWritable(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return fmt.Errorf("output not writable: %w", err)
	}
	return f.Close()
}

func load(input, target, protected, dsName string, seed int64) (*dataset.Dataset, error) {
	if input == "" {
		spec, err := experiments.LoadDataset(dsName, seed, false)
		if err != nil {
			return nil, err
		}
		fmt.Printf("using built-in %s: %s\n", spec.Name, spec.Data)
		return spec.Data, nil
	}
	if target == "" || protected == "" {
		return nil, fmt.Errorf("-input requires -target and -protected")
	}
	d, err := dataset.ReadCSVFile(input, target, strings.Split(protected, ","))
	if err != nil {
		return nil, err
	}
	fmt.Printf("loaded %s: %s\n", input, d)
	return d, nil
}

func runIdentify(ctx context.Context, d *dataset.Dataset, cfg core.Config, tree bool) error {
	res, err := core.IdentifyOptimizedCtx(ctx, d, cfg)
	if err != nil {
		return err
	}
	if tree {
		return res.RenderTree(os.Stdout)
	}
	fmt.Printf("IBS: %d biased regions (τ_c=%v, T=%d, k=%d, scope=%s)\n",
		len(res.Regions), cfg.TauC, cfg.T, cfg.MinSize, cfg.Scope)
	tab := &experiments.Table{
		Columns: []string{"Region", "|r|", "|r+|", "|r-|", "ratio_r", "ratio_rn", "gap"},
	}
	for _, r := range res.Regions {
		tab.Rows = append(tab.Rows, []string{
			res.Space.String(r.Pattern),
			fmt.Sprint(r.Counts.N), fmt.Sprint(r.Counts.Pos), fmt.Sprint(r.Counts.Neg()),
			fmt.Sprintf("%.3f", r.Ratio), fmt.Sprintf("%.3f", r.NeighborRatio),
			fmt.Sprintf("%.3f", r.Gap()),
		})
	}
	return tab.Render(os.Stdout)
}

// runAttribute trains a model, finds its most divergent subgroups, and
// prints the Shapley attribution of each one's divergence to its
// pattern items.
func runAttribute(ctx context.Context, d *dataset.Dataset, kind ml.ModelKind, seed int64) error {
	train, test := d.StratifiedSplit(0.7, seed)
	m, err := ml.TrainKindCtx(ctx, train, kind, seed)
	if err != nil {
		return err
	}
	preds := m.Predict(test)
	rep, err := divexplorer.ExploreCtx(ctx, test, preds, fairness.FPR, divexplorer.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("overall FPR %.3f; attributing the top unfair subgroups:\n", rep.Overall)
	for _, g := range rep.TopK(5) {
		contribs, err := rep.ShapleyAttribution(test, preds, g)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s  FPR=%.3f Δ=%.3f support=%.2f\n",
			rep.Space.String(g.Pattern), g.Value, g.Divergence, g.Support)
		for _, c := range contribs {
			fmt.Printf("  %-24s φ=%.3f\n", c.Item, c.Phi)
		}
	}
	return nil
}

func runRemedy(ctx context.Context, d *dataset.Dataset, cfg core.Config, tech remedy.Technique, output string, seed int64, errw io.Writer) error {
	out, rep, err := remedy.ApplyCtx(ctx, d, remedy.Options{Identify: cfg, Technique: tech, Seed: seed})
	if err != nil {
		if rep != nil {
			// Interrupted mid-remediation: surface what was completed so an
			// operator can judge how far the run got.
			fmt.Fprintf(errw, "remedy interrupted: %d regions remedied (+%d duplicated, -%d removed, %d relabeled) before: %v\n",
				len(rep.Actions), rep.Added, rep.Removed, rep.Flipped, err)
		}
		return err
	}
	fmt.Printf("remedied %d biased regions with %s: +%d duplicated, -%d removed, %d relabeled\n",
		rep.BiasedRegions, rep.Technique.Name(), rep.Added, rep.Removed, rep.Flipped)
	fmt.Printf("dataset: %d -> %d instances\n", d.Len(), out.Len())
	if output == "" {
		return nil
	}
	if err := out.WriteCSVFile(output); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", output)
	return nil
}

func runAudit(ctx context.Context, d *dataset.Dataset, cfg core.Config, tech remedy.Technique, kind ml.ModelKind, saveModel string, seed int64) error {
	train, test := d.StratifiedSplit(0.7, seed)
	fmt.Printf("split: %d train / %d test; model %s\n", train.Len(), test.Len(), kind)

	var lastClf ml.Classifier
	show := func(label string, tr *dataset.Dataset) error {
		clf, err := ml.NewClassifier(kind, seed)
		if err != nil {
			return err
		}
		m, err := ml.TrainCtx(ctx, tr, clf)
		if err != nil {
			return err
		}
		lastClf = clf
		preds := m.Predict(test)
		ev, err := experiments.Score(test, preds)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s accuracy=%.3f index(FPR)=%.3f index(FNR)=%.3f violation=%.4f\n",
			label, ev.Accuracy, ev.IndexFPR, ev.IndexFNR, ev.Violation)
		rep, err := divexplorer.ExploreCtx(ctx, test, preds, fairness.FPR, divexplorer.Options{})
		if err != nil {
			return err
		}
		unfair := rep.Unfair(0.1)
		limit := 5
		if len(unfair) < limit {
			limit = len(unfair)
		}
		for _, g := range unfair[:limit] {
			fmt.Printf("          unfair %s: FPR=%.3f (overall %.3f, Δ=%.3f, support %.2f)\n",
				rep.Space.String(g.Pattern), g.Value, rep.Overall, g.Divergence, g.Support)
		}
		return nil
	}

	if err := show("original", train); err != nil {
		return err
	}
	remedied, rep, err := remedy.ApplyCtx(ctx, train, remedy.Options{Identify: cfg, Technique: tech, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("remedy: %d biased regions, +%d/-%d/%d flips (%s)\n",
		rep.BiasedRegions, rep.Added, rep.Removed, rep.Flipped, rep.Technique.Name())
	if err := show("remedied", remedied); err != nil {
		return err
	}
	if saveModel != "" {
		if err := ml.SaveFile(saveModel, lastClf); err != nil {
			return err
		}
		fmt.Printf("saved remedied-data model to %s\n", saveModel)
	}
	return nil
}
