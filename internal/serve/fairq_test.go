package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/durable"
)

// fqJob builds a bare queued job for fair-queue unit tests (no engine
// attached, never run).
func fqJob(id, tenant string) *job {
	return &job{
		id:       id,
		req:      JobRequest{Kind: "identify", DatasetID: "ds-x", Tenant: tenant},
		rec:      durable.JobRecord{ID: id, State: StateQueued},
		done:     make(chan struct{}),
		admitted: make(chan struct{}),
	}
}

func mustPush(t *testing.T, q *fairQueue, j *job) {
	t.Helper()
	if _, _, err := q.push(j, false); err != nil {
		t.Fatalf("push %s: %v", j.id, err)
	}
}

// TestFairQueueWeights saturates two tenants and checks the DRR
// dispatch interleaving honors the 3:1 weight ratio exactly: every
// ring rotation serves three alpha jobs then one beta job.
func TestFairQueueWeights(t *testing.T) {
	q := newFairQueue(32, TenantConfig{Weight: 1}, nil)
	q.configure("alpha", TenantConfig{Weight: 3})
	q.configure("beta", TenantConfig{Weight: 1})
	for i := 0; i < 12; i++ {
		mustPush(t, q, fqJob(string(rune('a'+i)), "alpha"))
	}
	for i := 0; i < 4; i++ {
		mustPush(t, q, fqJob(string(rune('A'+i)), "beta"))
	}
	var gotAlpha, gotBeta int
	for i := 0; i < 16; i++ {
		j, ok := q.tryPop()
		if !ok {
			t.Fatalf("tryPop %d: queue empty early", i)
		}
		switch j.tenant {
		case "alpha":
			gotAlpha++
		case "beta":
			gotBeta++
		default:
			t.Fatalf("job %s has tenant %q", j.id, j.tenant)
		}
		// While both backlogs last (first 4 rotations of 4 pops), each
		// rotation must be alpha,alpha,alpha,beta.
		if i < 16 && i%4 == 3 && gotBeta != i/4+1 {
			t.Fatalf("after %d pops want %d beta jobs, got %d", i+1, i/4+1, gotBeta)
		}
	}
	if gotAlpha != 12 || gotBeta != 4 {
		t.Fatalf("served alpha=%d beta=%d, want 12/4", gotAlpha, gotBeta)
	}
	if _, ok := q.tryPop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestFairQueueNoStarvation pins the invariant the DRR design exists
// for: a weight-1 tenant behind a weight-100 neighbor with an always-
// full backlog is still served at least once per ring rotation.
func TestFairQueueNoStarvation(t *testing.T) {
	q := newFairQueue(256, TenantConfig{Weight: 1}, nil)
	q.configure("whale", TenantConfig{Weight: 100})
	q.configure("minnow", TenantConfig{Weight: 1})
	for i := 0; i < 210; i++ {
		mustPush(t, q, fqJob(string(rune(i)), "whale"))
	}
	mustPush(t, q, fqJob("m1", "minnow"))
	mustPush(t, q, fqJob("m2", "minnow"))
	// One full whale quantum (100 pops) plus one more pop must reach the
	// minnow: the ring cannot revisit the whale before visiting everyone
	// else.
	var sawMinnowAt []int
	for i := 0; i < 202; i++ {
		j, ok := q.tryPop()
		if !ok {
			t.Fatalf("tryPop %d: queue empty early", i)
		}
		if j.tenant == "minnow" {
			sawMinnowAt = append(sawMinnowAt, i)
		}
	}
	if len(sawMinnowAt) != 2 {
		t.Fatalf("minnow served %d times in 202 pops, want 2 (at %v)", len(sawMinnowAt), sawMinnowAt)
	}
	if sawMinnowAt[0] > 100 || sawMinnowAt[1] > 201 {
		t.Fatalf("minnow starved: served at pops %v", sawMinnowAt)
	}
}

// TestFairQueuePerTenantDepth checks the depth bound is per tenant: a
// tenant at its cap gets ErrQueueFull while another tenant is still
// admitted.
func TestFairQueuePerTenantDepth(t *testing.T) {
	q := newFairQueue(2, TenantConfig{Weight: 1}, nil)
	mustPush(t, q, fqJob("a1", "alpha"))
	mustPush(t, q, fqJob("a2", "alpha"))
	if _, _, err := q.push(fqJob("a3", "alpha"), false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third alpha push: want ErrQueueFull, got %v", err)
	}
	mustPush(t, q, fqJob("b1", "beta")) // other tenant unaffected
	th := q.tenantHealth()
	var alpha *TenantHealth
	for i := range th {
		if th[i].Name == "alpha" {
			alpha = &th[i]
		}
	}
	if alpha == nil || alpha.Rejected != 1 || alpha.Submitted != 2 {
		t.Fatalf("alpha health = %+v, want rejected=1 submitted=2", alpha)
	}
}

// TestFairQueueRateLimit drives a 2/s, burst-2 token bucket on a fake
// clock: the burst admits two, the third is throttled with a sane
// refill hint, and advancing the clock refills admission.
func TestFairQueueRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	q := newFairQueue(16, TenantConfig{Weight: 1}, clock)
	q.configure("metered", TenantConfig{Weight: 1, Rate: 2, Burst: 2})

	mustPush(t, q, fqJob("j1", "metered"))
	mustPush(t, q, fqJob("j2", "metered"))
	_, hint, err := q.push(fqJob("j3", "metered"), false)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third push: want ErrRateLimited, got %v", err)
	}
	if hint < 1 || hint > 60 {
		t.Fatalf("retry hint %d out of [1, 60]", hint)
	}
	// Recovery re-admission bypasses the bucket even while it is empty.
	if _, _, err := q.push(fqJob("j4", "metered"), true); err != nil {
		t.Fatalf("bypass push: %v", err)
	}
	// Half a second refills one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	mustPush(t, q, fqJob("j5", "metered"))
	if _, _, err := q.push(fqJob("j6", "metered"), false); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-refill second push: want ErrRateLimited, got %v", err)
	}
	th := q.tenantHealth()
	for _, row := range th {
		if row.Name == "metered" && row.Throttled != 2 {
			t.Fatalf("metered throttled = %d, want 2", row.Throttled)
		}
	}
}

// TestFairQueueOverflowFold checks the bounded tenant table: past
// maxTenants distinct names, new tenants fold into the default queue
// instead of growing the ring.
func TestFairQueueOverflowFold(t *testing.T) {
	q := newFairQueue(4096, TenantConfig{Weight: 1}, nil)
	for i := 0; i < maxTenants+10; i++ {
		name := "t" + string(rune('0'+i%10)) + string(rune('A'+i/10))
		j := fqJob(name+"-job", name)
		mustPush(t, q, j)
		if i >= maxTenants-1 { // default tenant occupies one slot
			if j.tenant != DefaultTenant {
				t.Fatalf("tenant %d (%s) accounted as %q, want fold into %q", i, name, j.tenant, DefaultTenant)
			}
		} else if j.tenant != name {
			t.Fatalf("tenant %d accounted as %q, want %q", i, j.tenant, name)
		}
	}
	if got := len(q.tenantHealth()); got != maxTenants {
		t.Fatalf("tenant table grew to %d rows, want %d", got, maxTenants)
	}
}

// TestRetryAfterBounds pins the derived Retry-After clamp: never below
// 1s, never above 60s, and proportional in between.
func TestRetryAfterBounds(t *testing.T) {
	cases := []struct {
		queued, workers int
		avgMS           float64
		want            int
	}{
		{0, 4, 100, 1},      // empty queue → floor
		{1, 4, 1, 1},        // sub-second drain → floor
		{8, 4, 1000, 2},     // 8 jobs × 1s / 4 workers = 2s
		{100, 1, 10000, 60}, // 1000s backlog → ceiling
		{4, 0, 500, 2},      // workers clamps to 1: 4×0.5s
		{10, 4, 0, 1},       // cold server assumes 250ms/job: ceil(0.625)=1
		{1000, 4, 0, 60},    // cold but deep backlog still hits... 1000*250/4/1000=62.5 → 60
		{-5, 4, 100, 1},     // negative queue (impossible) → floor
		{100, 4, -10, 7},    // negative avg treated as cold 250ms: ceil(100×0.25/4)=7
	}
	for _, tc := range cases {
		if got := retryAfterSecs(tc.queued, tc.workers, tc.avgMS); got != tc.want {
			t.Errorf("retryAfterSecs(%d, %d, %v) = %d, want %d",
				tc.queued, tc.workers, tc.avgMS, got, tc.want)
		}
	}
	for q := 0; q < 5000; q += 7 { // monotone and always in bounds
		got := retryAfterSecs(q, 4, 800)
		if got < 1 || got > 60 {
			t.Fatalf("retryAfterSecs(%d, 4, 800) = %d out of [1, 60]", q, got)
		}
	}
}
