package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"aide/internal/breaker"
	"aide/internal/obs"
	"aide/internal/webclient"
)

// deadTransport fails every request at the transport level.
type deadTransport struct{}

func (deadTransport) RoundTrip(context.Context, *webclient.Request) (*webclient.Response, error) {
	return nil, errors.New("connection refused")
}

// A breaker tripped by webclient traffic must be the one the scheduler
// consults, whatever the spelling of the URL's host: Tick defers the
// host instead of polling it.
func TestTickDefersHostTrippedViaWebclient(t *testing.T) {
	urls := []string{"http://Example.COM/page", "http://h?x=1"}
	r := newRig(t, Config{MinInterval: time.Minute, HostRPS: 100})
	set := breaker.NewSet(breaker.Config{FailureThreshold: 1, Cooldown: time.Hour})
	set.Clock = r.clock
	set.Metrics = obs.NewRegistry()
	client := webclient.New(deadTransport{})
	client.Clock = r.clock
	client.Metrics = obs.NewRegistry()
	client.Breakers = set
	for _, u := range urls {
		if _, err := client.Check(context.Background(), u); err == nil {
			t.Fatalf("check %s against a dead host succeeded", u)
		}
		if _, err := client.Check(context.Background(), u); !errors.Is(err, webclient.ErrBreakerOpen) {
			t.Fatalf("second check %s: %v, want breaker open", u, err)
		}
	}

	r.sched.Breakers = set
	for _, u := range urls {
		r.sched.Add(u)
	}
	r.clock.Advance(2 * time.Minute)
	st := r.sched.Tick(context.Background())
	for _, u := range urls {
		if n := r.pollCount(u); n != 0 {
			t.Errorf("%s polled %d times with its breaker open", u, n)
		}
	}
	if st.DeferredBreaker != len(urls) {
		t.Errorf("DeferredBreaker = %d, want %d", st.DeferredBreaker, len(urls))
	}
}
