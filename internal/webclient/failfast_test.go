package webclient

import (
	"context"
	"errors"
	"testing"
	"time"

	"aide/internal/breaker"
	"aide/internal/obs"
	"aide/internal/simclock"
)

func serverErrWithRetryAfter(d time.Duration) func() (*Response, error) {
	return func() (*Response, error) {
		return &Response{Status: 503, RetryAfter: d}, nil
	}
}

func TestRetryHonorsRetryAfter(t *testing.T) {
	c, st, clock := retryClient(serverErrWithRetryAfter(7*time.Second), ok)
	m := obs.NewRegistry()
	c.Metrics = m
	info, err := c.Get(context.Background(), "http://h/p")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != 200 || st.calls != 2 {
		t.Fatalf("status %d after %d attempts", info.Status, st.calls)
	}
	// The server's hint (7s) replaces the 1s backoff for that retry.
	if got := clock.Now().Sub(simclock.Epoch); got != 7*time.Second {
		t.Errorf("pause = %v, want the advertised 7s", got)
	}
	if n := m.CounterVec("webclient.retries", "cause").With("retry-after").Value(); n != 1 {
		t.Errorf("retry-after cause counter = %d, want 1", n)
	}
	if n := m.CounterVec("webclient.retries", "cause").With("status").Value(); n != 0 {
		t.Errorf("status cause counter = %d, want 0 (cause is retry-after)", n)
	}
}

func TestRetryAfterCappedByMaxDelay(t *testing.T) {
	c, _, clock := retryClient(serverErrWithRetryAfter(10*time.Minute), ok)
	c.Retry.MaxDelay = 20 * time.Second
	if _, err := c.Get(context.Background(), "http://h/p"); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(simclock.Epoch); got != 20*time.Second {
		t.Errorf("pause = %v, want MaxDelay cap of 20s", got)
	}
}

func TestRetryAfterIgnoredOnOtherStatuses(t *testing.T) {
	// A Retry-After on a non-503 response must not change the schedule.
	c, _, clock := retryClient(func() (*Response, error) {
		return &Response{Status: 500, RetryAfter: time.Hour}, nil
	}, ok)
	if _, err := c.Get(context.Background(), "http://h/p"); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(simclock.Epoch); got != time.Second {
		t.Errorf("pause = %v, want the normal 1s backoff", got)
	}
}

// breakerClient wires a scripted transport to a client with per-host
// breakers on a simulated clock and retries disabled, so each Get is
// exactly one attempt.
func breakerClient(cfg breaker.Config, script ...func() (*Response, error)) (*Client, *scriptTransport, *simclock.Sim) {
	st := &scriptTransport{script: script}
	clock := simclock.New(time.Time{})
	c := New(st)
	c.Clock = clock
	c.Breakers = breaker.NewSet(cfg)
	c.Breakers.Clock = clock
	return c, st, clock
}

func TestBreakerTripsAndFailsFast(t *testing.T) {
	cfg := breaker.Config{FailureThreshold: 3, Cooldown: time.Minute}
	c, st, _ := breakerClient(cfg, fail)
	m := obs.NewRegistry()
	c.Metrics = m
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, "http://bad.example.com/p"); err == nil {
			t.Fatal("scripted failure succeeded")
		}
	}
	if st.calls != 3 {
		t.Fatalf("wire attempts before trip = %d, want 3", st.calls)
	}
	// Tripped: the next request is rejected without touching the wire.
	_, err := c.Get(ctx, "http://bad.example.com/p")
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if kind := Classify(0, err); kind != Tripped {
		t.Errorf("Classify = %v, want Tripped", kind)
	}
	if st.calls != 3 {
		t.Errorf("wire attempts after trip = %d, want still 3", st.calls)
	}
	if n := m.Counter("webclient.breaker.short_circuits").Value(); n != 1 {
		t.Errorf("short-circuit counter = %d, want 1", n)
	}
}

func TestBreakerRecoversAfterCooldown(t *testing.T) {
	cfg := breaker.Config{FailureThreshold: 2, Cooldown: time.Minute}
	c, _, clock := breakerClient(cfg, fail, fail, ok)
	ctx := context.Background()
	c.Get(ctx, "http://flaky.example.com/p")
	c.Get(ctx, "http://flaky.example.com/p")
	if _, err := c.Get(ctx, "http://flaky.example.com/p"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("breaker not open after threshold: %v", err)
	}
	clock.Advance(time.Minute)
	// Half-open: the probe goes through, succeeds, and closes the breaker.
	info, err := c.Get(ctx, "http://flaky.example.com/p")
	if err != nil || info.Status != 200 {
		t.Fatalf("probe after cooldown: info=%+v err=%v", info, err)
	}
	if got := c.Breakers.For("flaky.example.com").State(); got != breaker.Closed {
		t.Errorf("state after successful probe = %v, want Closed", got)
	}
}

func TestBreakerScopedPerHost(t *testing.T) {
	cfg := breaker.Config{FailureThreshold: 1, Cooldown: time.Minute}
	st := &scriptTransport{script: []func() (*Response, error){fail, ok}}
	c := New(st)
	c.Clock = simclock.New(time.Time{})
	c.Breakers = breaker.NewSet(cfg)
	ctx := context.Background()
	c.Get(ctx, "http://dead.example.com/p")
	// A different host is unaffected by dead.example.com's open breaker.
	info, err := c.Get(ctx, "http://fine.example.com/p")
	if err != nil || info.Status != 200 {
		t.Fatalf("healthy host blocked: info=%+v err=%v", info, err)
	}
}

func Test5xxCountsAsHostFailure(t *testing.T) {
	cfg := breaker.Config{FailureThreshold: 2, Cooldown: time.Minute}
	c, _, _ := breakerClient(cfg, serverErr, serverErr, ok)
	ctx := context.Background()
	c.Get(ctx, "http://h/p")
	c.Get(ctx, "http://h/p")
	if _, err := c.Get(ctx, "http://h/p"); !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("5xx responses did not trip the breaker: %v", err)
	}
}

func Test4xxProvesHostAlive(t *testing.T) {
	cfg := breaker.Config{FailureThreshold: 2, Cooldown: time.Minute}
	c, _, _ := breakerClient(cfg, notFound)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		c.Get(ctx, "http://h/p")
	}
	if got := c.Breakers.For("h").State(); got != breaker.Closed {
		t.Errorf("404s tripped the breaker (state %v); they prove the host alive", got)
	}
}
