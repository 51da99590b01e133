// Command remedyload is the deterministic load harness for remedyd:
// it synthesizes a dataset, fans out virtual clients across a tenant
// mix, drives the server through the retrying client, and reports
// per-tenant latency percentiles, throughput, error taxonomies, and a
// weighted-fairness measurement. The report's deterministic half is
// byte-identical across same-seed runs, so a LOAD_*.json artifact
// diffs cleanly between revisions.
//
// Usage:
//
//	# Hammer a running server with a 3:1 tenant mix:
//	remedyload -serve-url http://localhost:8080 \
//	    -tenants 'team-a=3:8:20,team-b=1:4:10' -seed 42 -out LOAD.json
//
//	# Self-contained benchmark (boots an in-process remedyd):
//	remedyload -workers 4 -queue 64 -seed 42
//
// Each -tenants entry is name=weight:clients:jobs — the server-side
// fair-share weight, the number of concurrent virtual clients, and the
// jobs each client submits. Without -serve-url the harness boots an
// in-process server whose tenant weights mirror the mix, which is how
// `go test -race -count=1 ./cmd/remedyload/` runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "remedyload:", err)
		os.Exit(1)
	}
}

// parseMix decodes the -tenants flag ("name=weight:clients:jobs,…").
func parseMix(s string) ([]load.Tenant, error) {
	var mix []load.Tenant
	seen := map[string]bool{}
	for _, entry := range strings.Split(s, ",") {
		name, spec, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenants entry %q, want name=weight:clients:jobs", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate tenant %q", name)
		}
		seen[name] = true
		t := load.Tenant{Name: name}
		if n, err := fmt.Sscanf(spec, "%d:%d:%d", &t.Weight, &t.Clients, &t.Jobs); err != nil || n != 3 {
			return nil, fmt.Errorf("bad -tenants spec %q, want weight:clients:jobs", spec)
		}
		if t.Weight < 1 || t.Clients < 1 || t.Jobs < 1 {
			return nil, fmt.Errorf("-tenants entry %q: all fields must be >= 1", entry)
		}
		mix = append(mix, t)
	}
	return mix, nil
}

func run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("remedyload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serveURL = fs.String("serve-url", "", "remedyd to drive (empty: boot an in-process server)")
		seed     = fs.Int64("seed", 1, "seed for the dataset, every client schedule, and all retry jitter")
		mixFlag  = fs.String("tenants", "default=1:4:4", "load mix as name=weight:clients:jobs,…")
		rows     = fs.Int("rows", 400, "synthetic dataset rows")
		kind     = fs.String("kind", "identify", "job kind to submit")
		repeat   = fs.Bool("repeat", true, "resubmit the first request verbatim afterward and require a response-cache hit")
		out      = fs.String("out", "", "write the machine-readable report (JSON) here")
		workers  = fs.Int("workers", 4, "in-process server: worker pool size")
		queue    = fs.Int("queue", 64, "in-process server: per-tenant queue depth")
		cacheCap = fs.Int("cache-entries", 128, "in-process server: response cache capacity")
		verbose  = fs.Bool("v", false, "info-level progress logging to stderr")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	level := obs.LevelWarn
	if *verbose {
		level = obs.LevelInfo
	}
	lg := obs.NewLogger(stderr, level)

	baseURL := *serveURL
	if baseURL == "" {
		// Self-contained mode: an in-process remedyd whose tenant
		// weights mirror the load mix.
		tenants := map[string]serve.TenantConfig{}
		for _, t := range mix {
			tenants[t.Name] = serve.TenantConfig{Weight: t.Weight}
		}
		srv := serve.New(serve.Config{
			Workers: *workers, QueueDepth: *queue,
			CacheEntries: *cacheCap, Tenants: tenants, Logger: lg,
		})
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return lerr
		}
		hs := &http.Server{Handler: srv.Handler()}
		//lint:allow goroleak Serve returns when the deferred hs.Shutdown below runs
		go func() {
			if serr := hs.Serve(ln); serr != nil && serr != http.ErrServerClosed {
				lg.Error("in-process server", "err", serr)
			}
		}()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if serr := srv.Shutdown(sctx); serr != nil {
				lg.Error("in-process shutdown", "err", serr)
			}
			if herr := hs.Shutdown(sctx); herr != nil {
				lg.Error("in-process http shutdown", "err", herr)
			}
		}()
		baseURL = "http://" + ln.Addr().String()
		lg.Info("in-process server up", "url", baseURL, "workers", *workers)
	}

	rep, err := load.Run(ctx, load.Config{
		BaseURL:         baseURL,
		Seed:            *seed,
		Tenants:         mix,
		Rows:            *rows,
		Kind:            *kind,
		RepeatIdentical: *repeat,
		Logger:          lg,
	})
	if err != nil {
		return err
	}
	if err := rep.Table().Render(stdout); err != nil {
		return err
	}
	det := rep.Deterministic
	fmt.Fprintf(stdout, "lost=%d duplicated=%d cache_repeat_hit=%v max_fairness_dev=%.3f\n",
		det.Lost, det.Duplicated, det.CacheRepeatHit, rep.Observed.MaxFairnessDeviation)
	if *out != "" {
		b, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			return merr
		}
		if werr := os.WriteFile(*out, append(b, '\n'), 0o644); werr != nil {
			return werr
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	if det.Lost > 0 || det.Duplicated > 0 {
		return fmt.Errorf("accounting violated: %d lost, %d duplicated", det.Lost, det.Duplicated)
	}
	if *repeat && !det.CacheRepeatHit {
		return fmt.Errorf("verbatim resubmission was not served from the response cache")
	}
	return nil
}
