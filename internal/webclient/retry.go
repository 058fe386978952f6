package webclient

// Retry with exponential backoff for the §3.1 observation that network
// "errors are likely to be transient": rather than giving up on the
// first refused connection or timed-out request, the client retries a
// bounded number of times with exponentially growing, jittered pauses.
// Backoff sleeps go through the injected simclock.Clock, so under a
// simulated clock a retry schedule spends simulated — not wall — time
// and tests of attempt counts and pacing are deterministic.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aide/internal/breaker"
	"aide/internal/obs"
	"aide/internal/simclock"
)

// RetryPolicy configures transient-failure retry on a Client.
//
// Only failures classified Transient (transport errors, including
// per-request timeouts, and 5xx statuses) are retried; Gone, Forbidden,
// Moved, and success are delivered immediately. A done context stops
// the schedule at once: cancellation always wins over retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per round trip, first
	// attempt included. Values <= 1 disable retry.
	MaxAttempts int
	// BaseDelay is the pause before the first retry; each further retry
	// doubles it. Defaults to 1s when retries are enabled.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Defaults to 30s.
	MaxDelay time.Duration
	// Jitter is the fraction of each backoff randomised away (0..1) so
	// that a fleet of clients does not retry in lockstep. Zero disables
	// jitter, which keeps backoff sums exactly predictable in tests.
	Jitter float64
	// Seed seeds the jitter source, for reproducible schedules.
	Seed int64
}

// DefaultRetryPolicy is a conservative production default: three tries,
// 1s/2s pauses (±10%), bounded by 30s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Second, MaxDelay: 30 * time.Second, Jitter: 0.1}
}

// attempts returns the effective total try count.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 1 {
		return 1
	}
	return p.MaxAttempts
}

// maxDelay returns the effective backoff cap.
func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 30 * time.Second
}

// backoff returns the pause after attempt (0-based), already jittered.
func (p RetryPolicy) backoff(attempt int, jitterFrac float64) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = time.Second
	}
	max := p.maxDelay()
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if p.Jitter > 0 {
		d -= time.Duration(float64(d) * p.Jitter * jitterFrac)
	}
	return d
}

// retrier owns the jitter source; one per Client, safe for concurrent
// round trips.
type retrier struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// jitterFrac returns the next deterministic jitter fraction in [0,1).
func (r *retrier) jitterFrac(seed int64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(seed))
	}
	return r.rng.Float64()
}

// roundTrip performs one logical request: per-attempt timeout, then
// retry-with-backoff on Transient failures, stopping the moment the
// caller's context is done. It reports how many attempts it made and
// how long it slept between them, and records the attempt/retry/latency
// metrics.
func (c *Client) roundTrip(ctx context.Context, req *Request) (resp *Response, tries int, backoff time.Duration, err error) {
	m := c.metrics()
	var br *breaker.Breaker
	if c.Breakers != nil {
		if host := breaker.HostKey(req.URL); host != "" {
			br = c.Breakers.For(host)
		}
	}
	maxTries := c.Retry.attempts()
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			m.Counter("webclient.cancels").Inc()
			return nil, tries, backoff, cerr
		}
		if br != nil && !br.Allow() {
			// The host's breaker is open: fail fast, distinctly, without
			// touching the wire — retrying here would defeat the point.
			m.Counter("webclient.breaker.short_circuits").Inc()
			return nil, tries, backoff, fmt.Errorf("%w: %s", ErrBreakerOpen, breaker.HostKey(req.URL))
		}
		tries++
		m.Counter("webclient.attempts").Inc()
		start := c.clock().Now()
		resp, err = c.attempt(ctx, req)
		m.Histogram("webclient.attempt.duration", nil).ObserveDuration(c.clock().Now().Sub(start))
		if br != nil {
			// Any response below 500 proves the host alive; a transport
			// error, timeout, or 5xx is a host-level failure.
			br.Record(err == nil && resp.Status < 500)
		}
		if err != nil && IsTimeout(err) {
			m.Counter("webclient.timeouts").Inc()
		}
		if err == nil && Classify(resp.Status, nil) != Transient {
			return resp, tries, backoff, nil
		}
		if err != nil && ctx.Err() != nil {
			// The caller's own deadline or cancellation tripped
			// mid-flight; retrying would outlive the caller's interest.
			m.Counter("webclient.cancels").Inc()
			return nil, tries, backoff, err
		}
		if attempt+1 >= maxTries {
			// Out of tries: deliver the last outcome (a 5xx response is
			// returned as-is for the caller's Classify to see).
			return resp, tries, backoff, err
		}
		cause := retryCause(resp, err)
		pause := c.Retry.backoff(attempt, c.retrier.jitterFrac(c.Retry.Seed))
		if err == nil && resp.Status == 503 && resp.RetryAfter > 0 {
			// The server asked for a specific pause (load shedding's
			// 503 + Retry-After): honour it, capped at MaxDelay, and
			// account it as its own retry cause.
			cause = "retry-after"
			pause = resp.RetryAfter
			if max := c.Retry.maxDelay(); pause > max {
				pause = max
			}
		}
		m.Counter("webclient.retries").Inc()
		m.Counter("webclient.retries." + cause).Inc()
		obs.Logger().Debug("webclient retry",
			"url", req.URL, "attempt", attempt+1, "cause", cause, "backoff", pause)
		if serr := simclock.Sleep(ctx, c.clock(), pause); serr != nil {
			if err == nil {
				err = serr
			}
			m.Counter("webclient.cancels").Inc()
			return nil, tries, backoff, err
		}
		backoff += pause
	}
}

// retryCause labels why an attempt is being retried, for the per-cause
// retry counters (§3.1 distinguishes proxy overload from other
// transient trouble).
func retryCause(resp *Response, err error) string {
	switch {
	case err == nil:
		return "status" // a retryable 5xx
	case IsTimeout(err):
		return "timeout"
	default:
		return "transport"
	}
}

// attempt is one wire round trip under the per-request timeout.
func (c *Client) attempt(ctx context.Context, req *Request) (*Response, error) {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	return c.Transport.RoundTrip(ctx, req)
}

// clock returns the client's pacing clock (wall when unset).
func (c *Client) clock() simclock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return simclock.Wall{}
}

// metrics returns the client's registry (obs.Default when unset).
func (c *Client) metrics() *obs.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return obs.Default
}
