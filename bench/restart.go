package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/serve"
)

// restartImage is a data dir a durable server wrote and shut down on,
// with the GET /jobs digest it ended with.
type restartImage struct {
	dir    string
	digest string
	jobs   int
}

// buildImage drives identify jobs and uploads through a durable server
// on a fresh data dir, then shuts it down. Jobs are submitted by one
// closed-loop caller per CPU.
func buildImage(ctx context.Context, rc *runCtx) (*restartImage, error) {
	dir, err := os.MkdirTemp("", "bench-restart-image-")
	if err != nil {
		return nil, err
	}
	img := &restartImage{dir: dir}
	srv, err := startServer(ctx, dir)
	if err != nil {
		return nil, errors.Join(err, img.remove())
	}
	err = driveJobs(ctx, rc, srv)
	if err == nil {
		img.digest, img.jobs, err = jobsDigest(srv.srv.Handler())
	}
	if err = errors.Join(err, srv.stop(ctx)); err != nil {
		return nil, errors.Join(err, img.remove())
	}
	return img, nil
}

func (img *restartImage) remove() error { return os.RemoveAll(img.dir) }

func driveJobs(ctx context.Context, rc *runCtx, srv *server) error {
	cl := srv.client("team-a")
	var ids []string
	for i := 0; i < rc.sc.restartUploads; i++ {
		b, err := compasCSV(rc.sc.restartRows, rc.seed*1000+int64(i))
		if err != nil {
			return err
		}
		info, err := cl.UploadDataset(ctx, bytes.NewReader(b), fmt.Sprintf("restart-%d", i), compasTarget, compasProtected)
		if err != nil {
			return fmt.Errorf("restart: upload: %w", err)
		}
		ids = append(ids, info.ID)
	}
	callers := runtime.GOMAXPROCS(0)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(rc.seed), uint64(c)))
			for j := c; j < rc.sc.restartJobs && errs[c] == nil; j += callers {
				st, err := cl.SubmitJob(ctx, serve.JobRequest{Kind: "identify", DatasetID: ids[j%len(ids)],
					TauC: 0.05 + 0.2*r.Float64(), T: 1, MinSize: 20 + 5*r.IntN(4)})
				if err == nil && !st.State.Terminal() {
					st, err = cl.Wait(ctx, st.ID, time.Millisecond)
				}
				if err == nil && st.State != serve.StateDone {
					err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
				}
				errs[c] = err
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runRestart is a closed loop of one caller: each op copies the image
// to a fresh dir (not timed) and times durable.Open plus
// serve.NewDurable until the server is ready.
func runRestart(ctx context.Context, rc *runCtx) (*report, error) {
	rep := newReport()
	img, setupS, err := setupMedian(ctx, rc.sc, func(ctx context.Context) (*restartImage, error) {
		return buildImage(ctx, rc)
	}, func(img *restartImage) { _ = img.remove() })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS, "s")
	err = measureRestart(ctx, rc, rep, img)
	return rep, errors.Join(err, img.remove())
}

func measureRestart(ctx context.Context, rc *runCtx, rep *report, img *restartImage) error {
	var untraced, traced []float64
	var layer restartLayers
	mem := markMem()
	start := time.Now()
	for op := 0; op < minOps || time.Since(start) < rc.measure; op++ {
		rep.attempted++
		ms, err := layer.op(ctx, rc, op, img)
		if err != nil {
			rep.failed++
			return fmt.Errorf("restart: op %d: %w", op, err)
		}
		if rc.traced(op) {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
		rep.sampleHost()
	}
	md := mem.since()
	rep.printf("recovered GET /jobs digest %s (%d jobs) equals the generating run's on every op", img.digest, img.jobs)
	if rc.tr == nil {
		rep.latency(untraced)
		rep.peakRSS()
		return nil
	}
	if err := layer.report(ctx, rc, rep, img); err != nil {
		return err
	}
	rep.runtimePerOp("restart", md, len(untraced)+len(traced))
	rep.overhead("restart", untraced, traced)
	rep.printSelfTimes(rc.tr, len(traced))
	return nil
}

// restartLayers accumulates the traced ops' recovery breakdown, each
// part timed on its own on the op's copy after the timed recovery.
type restartLayers struct {
	replayMS, reduceMS, loadMS, newMS []float64
}

// op recovers one copy of the image and checks the recovered job
// history. It returns the recovery's latency in ms.
func (l *restartLayers) op(ctx context.Context, rc *runCtx, op int, img *restartImage) (float64, error) {
	dir, err := copyImage(img.dir)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	tr := rc.tr
	if !rc.traced(op) {
		tr = nil
	}
	root := tr.begin(op, -1, "bench.op")
	t0 := time.Now()
	sp := tr.begin(op, root, "durable.open")
	store, err := durable.Open(ctx, dir, true)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(op, root, "serve.new_durable")
	srv, err := serve.NewDurable(ctx, serveConfig(), store)
	tr.end(sp)
	ms := msSince(t0)
	tr.end(root)
	if err != nil {
		return 0, errors.Join(err, store.Close())
	}
	digest, _, err := jobsDigest(srv.Handler())
	if err == nil && digest != img.digest {
		err = fmt.Errorf("recovered GET /jobs digest %s, the generating run ended with %s", digest, img.digest)
	}
	if err = errors.Join(err, srv.Shutdown(ctx), store.Close()); err != nil || tr == nil {
		return ms, err
	}
	// Recovery appended nothing (every job was terminal), so the copy
	// still holds the image for the breakdown.
	l.newMS = append(l.newMS, ms)
	return ms, l.breakdown(ctx, dir)
}

// breakdown times the parts of recovery through their public entry
// points: journal replay, reduction, and reloading spilled datasets.
func (l *restartLayers) breakdown(ctx context.Context, dir string) error {
	t0 := time.Now()
	var recs []durable.Record
	if _, err := durable.ReplayJournal(ctx, filepath.Join(dir, "journal.wal"), func(r durable.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return err
	}
	l.replayMS = append(l.replayMS, msSince(t0))
	t0 = time.Now()
	if t := durable.Reduce(recs); len(t.Jobs) == 0 {
		return fmt.Errorf("reduced journal holds no jobs")
	}
	l.reduceMS = append(l.reduceMS, msSince(t0))

	t0 = time.Now()
	store, err := durable.Open(ctx, dir, false)
	if err != nil {
		return err
	}
	spilled, err := store.LoadDatasets(ctx)
	for _, sd := range spilled {
		if err != nil {
			break
		}
		_, err = dataset.ReadCSVFile(sd.CSVPath, sd.Meta.Target, sd.Meta.Protected)
	}
	l.loadMS = append(l.loadMS, msSince(t0))
	return errors.Join(err, store.Close())
}

func (l *restartLayers) report(ctx context.Context, rc *runCtx, rep *report, img *restartImage) error {
	replay, reduce := median(l.replayMS), median(l.reduceMS)
	rep.set("durable.replay_s", replay/1e3, "s")
	rep.set("durable.reduce_s", reduce/1e3, "s")
	rep.set("durable.load_datasets_s", median(l.loadMS)/1e3, "s")
	rep.set("serve.restore_s", (median(l.newMS)-replay-reduce)/1e3, "s")
	st, err := os.Stat(filepath.Join(img.dir, "journal.wal"))
	if err != nil {
		return err
	}
	rep.set("durable.journal_mb", float64(st.Size())/(1<<20), "MiB")

	// Probe: compact a copy of the image into a snapshot, then recover
	// from the snapshot.
	dir, err := copyImage(img.dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := durable.Open(ctx, dir, true)
	if err != nil {
		return err
	}
	srv, err := serve.NewDurable(ctx, serveConfig(), store)
	if err != nil {
		return errors.Join(err, store.Close())
	}
	if err := srv.Shutdown(ctx); err != nil {
		return errors.Join(err, store.Close())
	}
	t0 := time.Now()
	err = store.Compact(ctx, store.Journal().Sequence(), true)
	rep.set("durable.compact_s", time.Since(t0).Seconds(), "s")
	if err = errors.Join(err, store.Close()); err != nil {
		return fmt.Errorf("restart: compact probe: %w", err)
	}
	t0 = time.Now()
	store, err = durable.Open(ctx, dir, true)
	if err != nil {
		return err
	}
	srv, err = serve.NewDurable(ctx, serveConfig(), store)
	rep.set("durable.recover_s.snapshot", time.Since(t0).Seconds(), "s")
	if err != nil {
		return errors.Join(err, store.Close())
	}
	digest, _, err := jobsDigest(srv.Handler())
	if err == nil && digest != img.digest {
		err = fmt.Errorf("restart: recovery from the snapshot gives GET /jobs digest %s, want %s", digest, img.digest)
	}
	return errors.Join(err, srv.Shutdown(ctx), store.Close())
}

// copyImage copies a data dir to a fresh temporary dir.
func copyImage(src string) (string, error) {
	dst, err := os.MkdirTemp("", "bench-restart-")
	if err != nil {
		return "", err
	}
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return copyFile(path, filepath.Join(dst, rel))
	})
	if err != nil {
		return "", errors.Join(err, os.RemoveAll(dst))
	}
	return dst, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		return errors.Join(err, out.Close())
	}
	return out.Close()
}
