package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand" //lint:allow determinism type-only consumer: the jitter RNG is constructed by internal/stats.NewRNG from a caller-supplied seed
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// ErrCircuitOpen is returned without touching the network while the
// client's circuit breaker is open (repeated failures tripped it and
// the single half-open probe is already in flight).
var ErrCircuitOpen = errors.New("serve: circuit breaker open")

// RetryPolicy configures the Client's retry loop. The zero value of
// every field takes the documented default; attach a policy with
// NewRetryingClient or by setting Client.Retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, first
	// attempt included (default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms);
	// it doubles each retry up to MaxDelay (default 2s). The actual
	// sleep is jittered to [delay/2, delay] by a deterministic RNG
	// seeded with Seed, and stretched to honor a server Retry-After.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed seeds the jitter RNG and the generated idempotency keys
	// (default 1). Two clients with the same seed retry identically —
	// the repository's reproducibility contract extends to backoff.
	Seed int64
	// BreakerThreshold is the number of consecutive eligible failures
	// that opens the circuit breaker (default 5; negative disables the
	// breaker). While open, one probe request at a time is allowed
	// through; a probe success closes the breaker, anything else fails
	// fast with ErrCircuitOpen. The breaker needs no clock, so it adds
	// no nondeterminism. A test seam: TestCircuitBreakerOpensAndRecovers
	// sets 2, TestBreakerConcurrentHalfOpenProbe 3,
	// TestClientRetryCounters 2 and −1, and the cluster's chaos tests
	// (netFleet) −1.
	BreakerThreshold int
	// OnRetry, when non-nil, is called before each backoff sleep —
	// remedyctl uses it for "queue full, retrying (attempt n/k)" lines.
	OnRetry func(RetryInfo)
}

// RetryInfo describes one failed attempt that is about to be retried.
type RetryInfo struct {
	// Attempt is the 1-based attempt that just failed, of MaxAttempts.
	Attempt     int
	MaxAttempts int
	Method      string
	Path        string
	// Status is the HTTP status of the failed attempt (0 for transport
	// errors) and Err the error it produced.
	Status int
	Err    error
	// Delay is the backoff about to be slept.
	Delay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 5
	}
	return p
}

// retryState is the Client's mutable retry bookkeeping: the seeded
// jitter/key RNG and the circuit breaker.
type retryState struct {
	mu      sync.Mutex
	rng     *rand.Rand
	fails   int  // consecutive eligible failures
	open    bool // breaker tripped
	probing bool // the one half-open probe is in flight
}

// rngLocked lazily builds the deterministic RNG.
func (c *Client) rngLocked(seed int64) *rand.Rand {
	if c.st.rng == nil {
		c.st.rng = stats.NewRNG(seed)
	}
	return c.st.rng
}

// nextIdemKey mints a deterministic idempotency key for one
// submission. Keys are unique per client (the RNG stream advances) and
// reproducible across runs with the same seed.
func (c *Client) nextIdemKey(p RetryPolicy) string {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	return fmt.Sprintf("ck-%016x", c.rngLocked(p.Seed).Uint64())
}

// jitter maps a backoff delay to a deterministic sleep in
// [delay/2, delay].
func (c *Client) jitter(p RetryPolicy, delay time.Duration) time.Duration {
	if delay <= 1 {
		return delay
	}
	half := delay / 2
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	return half + time.Duration(c.rngLocked(p.Seed).Int63n(int64(half)+1))
}

// breakerAllow gates one request. It returns probe=true when the
// breaker is open and this request is the half-open probe.
func (c *Client) breakerAllow(p RetryPolicy) (probe bool, err error) {
	if p.BreakerThreshold < 0 {
		return false, nil
	}
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	if !c.st.open {
		return false, nil
	}
	if c.st.probing {
		c.Obs.Counter("client.breaker_open").Inc()
		return false, fmt.Errorf("%w after %d consecutive failures", ErrCircuitOpen, c.st.fails)
	}
	c.st.probing = true
	return true, nil
}

// breakerRecord folds one attempt's outcome into the breaker. Only
// eligible failures (the retryable kind: transport errors and 429/5xx)
// count toward opening it; a success closes it.
func (c *Client) breakerRecord(p RetryPolicy, probe, success, eligible bool) {
	if p.BreakerThreshold < 0 {
		return
	}
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	if probe {
		c.st.probing = false
	}
	switch {
	case success:
		c.st.fails = 0
		c.st.open = false
	case eligible:
		c.st.fails++
		if c.st.fails >= p.BreakerThreshold {
			c.st.open = true
		}
	}
}

// retryable classifies one attempt's failure: transport errors and the
// transient statuses (429 backpressure, 5xx) are worth retrying;
// context cancellation and client errors (4xx) are not.
func retryable(err error) (status int, ok bool) {
	if err == nil {
		return 0, false
	}
	var ae *apiError
	if errors.As(err, &ae) {
		switch {
		case ae.Status == 429:
			return ae.Status, true
		case ae.Status >= 500:
			return ae.Status, true
		}
		return ae.Status, false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	return 0, true // transport error
}

// backoff computes the sleep before retry number attempt (1-based),
// honoring a server-supplied Retry-After if it asks for longer.
func (c *Client) backoff(p RetryPolicy, attempt int, err error) time.Duration {
	delay := p.BaseDelay << (attempt - 1)
	if delay > p.MaxDelay || delay <= 0 {
		delay = p.MaxDelay
	}
	delay = c.jitter(p, delay)
	var ae *apiError
	if errors.As(err, &ae) && ae.RetryAfter > delay {
		delay = ae.RetryAfter
	}
	return delay
}

// doRetry runs the attempt loop for a request whose body can be
// replayed. It is the policy half of Client.do; the transport half is
// Client.attempt.
func (c *Client) doRetry(ctx context.Context, method, path string, body []byte, out any) error {
	p := c.Retry.withDefaults()
	probe, err := c.breakerAllow(p)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		lastErr = c.attempt(ctx, method, path, bodyReader(body), out)
		status, eligible := retryable(lastErr)
		c.breakerRecord(p, probe, lastErr == nil, eligible)
		if lastErr == nil {
			return nil
		}
		if !eligible || attempt == p.MaxAttempts {
			if eligible {
				c.Obs.Counter("client.retry_give_up").Inc()
			}
			return lastErr
		}
		if probe {
			// The half-open probe failed: fail fast rather than hammer a
			// server the breaker already believes is down.
			return lastErr
		}
		delay := c.backoff(p, attempt, lastErr)
		c.Obs.Counter("client.retries").Inc()
		if status != 0 {
			c.Obs.Counter(obs.WithLabel("client.retry_status", "status", fmt.Sprintf("%d", status))).Inc()
		}
		if p.OnRetry != nil {
			p.OnRetry(RetryInfo{
				Attempt: attempt, MaxAttempts: p.MaxAttempts,
				Method: method, Path: path,
				Status: status, Err: lastErr, Delay: delay,
			})
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
	return lastErr
}
