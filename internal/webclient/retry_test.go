package webclient

import (
	"context"
	"errors"
	"testing"
	"time"

	"aide/internal/obs"
	"aide/internal/simclock"
)

// scriptTransport answers each attempt from a fixed script of outcomes
// and counts how many attempts were made.
type scriptTransport struct {
	script []func() (*Response, error)
	calls  int
}

func (s *scriptTransport) RoundTrip(_ context.Context, _ *Request) (*Response, error) {
	i := s.calls
	s.calls++
	if i >= len(s.script) {
		i = len(s.script) - 1
	}
	return s.script[i]()
}

func ok() (*Response, error)        { return &Response{Status: 200, Body: "hello"}, nil }
func fail() (*Response, error)      { return nil, errors.New("connection refused") }
func serverErr() (*Response, error) { return &Response{Status: 503}, nil }
func notFound() (*Response, error)  { return &Response{Status: 404}, nil }

// retryClient wires a script to a client with retry paced by a simulated
// clock, so backoff spends simulated — not wall — time.
func retryClient(script ...func() (*Response, error)) (*Client, *scriptTransport, *simclock.Sim) {
	st := &scriptTransport{script: script}
	clock := simclock.New(time.Time{})
	c := New(st)
	c.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Second, MaxDelay: 30 * time.Second}
	c.Clock = clock
	return c, st, clock
}

func TestRetryTransientErrorThenSuccess(t *testing.T) {
	c, st, clock := retryClient(fail, fail, ok)
	info, err := c.Get(context.Background(), "http://h/p")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != 200 || info.Body != "hello" {
		t.Errorf("info = %+v", info)
	}
	if st.calls != 3 {
		t.Errorf("attempts = %d, want 3", st.calls)
	}
	// Jitter is zero, so the backoff schedule is exactly 1s + 2s.
	if got := clock.Now().Sub(simclock.Epoch); got != 3*time.Second {
		t.Errorf("simulated backoff = %v, want 3s", got)
	}
}

func TestRetryServerErrorThenSuccess(t *testing.T) {
	c, st, _ := retryClient(serverErr, ok)
	info, err := c.Get(context.Background(), "http://h/p")
	if err != nil || info.Status != 200 {
		t.Fatalf("info = %+v, err = %v", info, err)
	}
	if st.calls != 2 {
		t.Errorf("attempts = %d, want 2", st.calls)
	}
}

func TestRetryExhaustedDeliversLastOutcome(t *testing.T) {
	// Persistent 5xx: the caller gets the final response to Classify.
	c, st, clock := retryClient(serverErr)
	info, err := c.Get(context.Background(), "http://h/p")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != 503 {
		t.Errorf("status = %d, want 503", info.Status)
	}
	if st.calls != 3 {
		t.Errorf("attempts = %d, want 3", st.calls)
	}
	if got := clock.Now().Sub(simclock.Epoch); got != 3*time.Second {
		t.Errorf("simulated backoff = %v, want 3s", got)
	}

	// Persistent transport error: the error surfaces after the tries.
	c2, st2, _ := retryClient(fail)
	if _, err := c2.Get(context.Background(), "http://h/p"); err == nil {
		t.Error("persistent transport error not returned")
	}
	if st2.calls != 3 {
		t.Errorf("attempts = %d, want 3", st2.calls)
	}
}

func TestRetrySkipsNonTransientStatuses(t *testing.T) {
	c, st, clock := retryClient(notFound)
	info, err := c.Get(context.Background(), "http://h/p")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != 404 {
		t.Errorf("status = %d", info.Status)
	}
	if st.calls != 1 {
		t.Errorf("attempts = %d, want 1 (404 is not transient)", st.calls)
	}
	if got := clock.Now().Sub(simclock.Epoch); got != 0 {
		t.Errorf("backoff slept %v for a non-retried status", got)
	}
}

func TestRetryDisabledByZeroPolicy(t *testing.T) {
	st := &scriptTransport{script: []func() (*Response, error){fail}}
	c := New(st)
	if _, err := c.Get(context.Background(), "http://h/p"); err == nil {
		t.Error("error swallowed")
	}
	if st.calls != 1 {
		t.Errorf("attempts = %d, want 1 (zero policy)", st.calls)
	}
}

func TestRetryBackoffCappedByMaxDelay(t *testing.T) {
	c, _, clock := retryClient(serverErr)
	c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Second, MaxDelay: 2 * time.Second}
	if _, err := c.Get(context.Background(), "http://h/p"); err != nil {
		t.Fatal(err)
	}
	// Pauses: 1s, then 2s (capped), then 2s (capped) = 5s.
	if got := clock.Now().Sub(simclock.Epoch); got != 5*time.Second {
		t.Errorf("simulated backoff = %v, want 5s", got)
	}
}

func TestRetryJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) time.Duration {
		c, _, clock := retryClient(serverErr)
		c.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Second, Jitter: 0.5, Seed: seed}
		if _, err := c.Get(context.Background(), "http://h/p"); err != nil {
			t.Fatal(err)
		}
		return clock.Now().Sub(simclock.Epoch)
	}
	a, b := run(7), run(7)
	if a != b {
		t.Errorf("same seed, different schedules: %v vs %v", a, b)
	}
	// Jitter only ever shortens the pause: total in (1.5s, 3s].
	if a <= 1500*time.Millisecond || a > 3*time.Second {
		t.Errorf("jittered total %v outside (1.5s, 3s]", a)
	}
	if c := run(8); c == a {
		t.Errorf("different seeds produced identical schedule %v", c)
	}
}

func TestRetryStopsWhenContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &scriptTransport{}
	st.script = []func() (*Response, error){func() (*Response, error) {
		cancel() // the caller loses interest mid-flight
		return nil, errors.New("connection reset")
	}}
	c := New(st)
	c.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Second}
	c.Clock = simclock.New(time.Time{})
	if _, err := c.Get(ctx, "http://h/p"); err == nil {
		t.Error("canceled fetch reported success")
	}
	if st.calls != 1 {
		t.Errorf("attempts = %d, want 1 (no retry after cancel)", st.calls)
	}
}

func TestRetryRefusesCanceledContextUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, st, _ := retryClient(ok)
	if _, err := c.Get(ctx, "http://h/p"); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if st.calls != 0 {
		t.Errorf("attempts = %d, want 0", st.calls)
	}
}

// TestRetryStatsOnPageInfo checks the attempt count and total backoff
// are surfaced on the result, so callers need not sniff logs.
func TestRetryStatsOnPageInfo(t *testing.T) {
	c, _, _ := retryClient(fail, serverErr, ok)
	info, err := c.Get(context.Background(), "http://h/p")
	if err != nil {
		t.Fatal(err)
	}
	if info.Attempts != 3 {
		t.Errorf("info.Attempts = %d, want 3", info.Attempts)
	}
	// Jitter is zero: the schedule is exactly 1s + 2s.
	if info.BackoffTotal != 3*time.Second {
		t.Errorf("info.BackoffTotal = %v, want 3s", info.BackoffTotal)
	}
}

// TestRetryStatsAcrossRedirects checks attempts accumulate over hops.
func TestRetryStatsAcrossRedirects(t *testing.T) {
	redirect := func() (*Response, error) {
		return &Response{Status: 302, Location: "http://h/new"}, nil
	}
	c, _, _ := retryClient(redirect, fail, ok)
	info, err := c.Get(context.Background(), "http://h/old")
	if err != nil {
		t.Fatal(err)
	}
	if info.URL != "http://h/new" || info.Redirected != 1 {
		t.Fatalf("info = %+v", info)
	}
	if info.Attempts != 3 { // 1 redirect hop + 1 failure + 1 success
		t.Errorf("info.Attempts = %d, want 3", info.Attempts)
	}
	if info.BackoffTotal != time.Second {
		t.Errorf("info.BackoffTotal = %v, want 1s", info.BackoffTotal)
	}
}

// TestRetryMetrics checks the per-cause retry counters and the attempt
// histogram land in the client's injected registry.
func TestRetryMetrics(t *testing.T) {
	c, _, _ := retryClient(fail, serverErr, ok)
	c.Metrics = obs.NewRegistry()
	if _, err := c.Get(context.Background(), "http://h/p"); err != nil {
		t.Fatal(err)
	}
	snap := c.Metrics.Snapshot()
	want := map[string]int64{
		"webclient.attempts":                   3,
		`webclient.retries{cause="transport"}`: 1,
		`webclient.retries{cause="status"}`:    1,
	}
	for name, n := range want {
		if snap.Counters[name] != n {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], n)
		}
	}
	if got := snap.Histograms["webclient.attempt.duration"].Count; got != 3 {
		t.Errorf("attempt histogram count = %d, want 3", got)
	}
}

// TestCancelMetric checks a mid-retry cancellation is counted.
func TestCancelMetric(t *testing.T) {
	c, _, _ := retryClient(fail)
	c.Metrics = obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, "http://h/p"); err == nil {
		t.Fatal("want error from canceled context")
	}
	if got := c.Metrics.Counter("webclient.cancels").Value(); got == 0 {
		t.Error("webclient.cancels = 0, want nonzero")
	}
}
