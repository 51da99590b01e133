package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// scale sizes the workloads. Full is what the benchmark measures; toy
// runs every code path in seconds for the package's tests. Golden
// digests are kept per scale.
type scale struct {
	name string
	// Each workload sets up at least setups times and until
	// setupBudget has passed; setup_s is the median.
	setups      int
	setupBudget time.Duration
	// adultRows sizes audit-wide and remedy-train.
	adultRows int
	// compasRows sizes serve-mixed's four resident datasets and
	// uploadRows each dataset it uploads during the run.
	compasRows, uploadRows int
	// nominalRate is serve-mixed's arrival rate in jobs/s before the
	// ladder; the ladder climbs from ladderBase by ×1.1 per step.
	nominalRate, ladderBase float64
	ladderSteps             int
	// latencyLimitMS is serve-mixed's p90 limit.
	latencyLimitMS float64
	// restartJobs and restartUploads size the data dir restart
	// recovers; restartRows sizes each uploaded dataset.
	restartJobs, restartUploads, restartRows int
}

var fullScale = scale{
	name:           "full",
	setups:         3,
	setupBudget:    time.Second,
	adultRows:      45222,
	compasRows:     6172,
	uploadRows:     2000,
	nominalRate:    100,
	ladderBase:     360,
	ladderSteps:    7,
	latencyLimitMS: 15,
	restartJobs:    1000,
	restartUploads: 8,
	restartRows:    2000,
}

var toyScale = scale{
	name:           "toy",
	setups:         2,
	adultRows:      1500,
	compasRows:     600,
	uploadRows:     200,
	nominalRate:    100,
	ladderBase:     100,
	ladderSteps:    7,
	latencyLimitMS: 500,
	restartJobs:    40,
	restartUploads: 2,
	restartRows:    300,
}

// runCtx is what one workload run is given.
type runCtx struct {
	seed int64
	// measure is the length of the timed phase.
	measure time.Duration
	sc      scale
	// golden maps "<scale>/<seed>/<key>" to the expected digest.
	golden map[string]string
	// tr is nil in the untraced run. In a traced run every other op is
	// traced, so the untraced ones give the tracing overhead.
	tr *tracer
}

func (rc *runCtx) traced(op int) bool { return rc.tr != nil && op%2 == 1 }

// checkGolden compares every digest of rep against the golden set for
// this scale and seed, where one is committed.
func (rc *runCtx) checkGolden(rep *report) error {
	checked := 0
	for key, got := range rep.digests {
		want, ok := rc.golden[fmt.Sprintf("%s/%d/%s", rc.sc.name, rc.seed, key)]
		if !ok {
			continue
		}
		if got != want {
			return fmt.Errorf("digest %s = %s, golden %s", key, got, want)
		}
		checked++
	}
	if checked > 0 {
		rep.printf("golden digests: %d match", checked)
	}
	return nil
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, rc *runCtx) (*report, error)
	// hostAlpha is how strongly the workload's times slow with the host:
	// they scale as hostRef^hostAlpha (see adjustToHost). Fitted from
	// calibration runs; refit it when a workload's mix of work changes.
	hostAlpha float64
}

var workloads = []workload{
	{"audit-wide", runAuditWide, 1.0},
	{"remedy-train", runRemedyTrain, 0.75},
	{"serve-mixed", runServeMixed, 0.75},
	{"restart", runRestart, 0.75},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// withProtected returns d viewed with the named attributes protected.
func withProtected(d *dataset.Dataset, names []string) (*dataset.Dataset, error) {
	s := d.Schema.Clone()
	if err := s.SetProtected(names...); err != nil {
		return nil, err
	}
	return &dataset.Dataset{Schema: s, Rows: d.Rows, Labels: d.Labels, Weights: d.Weights}, nil
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// ibsDigest fingerprints an identification result: every region's
// pattern, counts and scores, bit for bit.
func ibsDigest(res *core.Result) string {
	h := sha256.New()
	for _, r := range res.Regions {
		fmt.Fprintf(h, "%s|%d|%d|%d|%x|%d|%d|%x\n", res.Space.String(r.Pattern), r.Counts.N, r.Counts.Pos,
			r.Counts.Neg(), math.Float64bits(r.Ratio), r.NeighborCounts.N, r.NeighborCounts.Pos,
			math.Float64bits(r.NeighborRatio))
	}
	fmt.Fprintf(h, "explored=%d ops=%d pruned=%d\n", res.Explored, res.NeighborOps, res.Pruned)
	return hexSum(h)
}
