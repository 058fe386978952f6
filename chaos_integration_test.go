package bench

// Chaos soak tests: a sweep over a fleet of part-faulty hosts must
// complete degraded rather than abort, the per-host circuit breakers
// must trip on dead hosts and recover when the fault clears, and the
// load-shedding gate's 503 + Retry-After must be honoured by the
// client's retry policy. Run with -race in CI (the chaos job).

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"aide/internal/aide"
	"aide/internal/breaker"
	"aide/internal/hotlist"
	"aide/internal/obs"
	"aide/internal/simclock"
	"aide/internal/snapshot"
	"aide/internal/tracker"
	"aide/internal/webclient"
	"aide/internal/websim"
)

// checkGoroutineLeaks registers a teardown (first, so it runs last)
// that fails the test if goroutines outlive it. A small slack plus a
// settling loop absorbs runtime background goroutines and the handful
// of request goroutines still unwinding from closed test servers.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestChaosSoakSweep is the acceptance scenario from the failure-
// isolation issue: ten hosts, four of them faulty (dead, hung, always-
// 503, flapping), a full sweep that completes with per-host
// ok/degraded/skipped accounting, breakers visible in /debug/health
// and the metrics registry, and recovery once the faults clear.
func TestChaosSoakSweep(t *testing.T) {
	checkGoroutineLeaks(t)
	clock := simclock.New(time.Time{})
	web := websim.New(clock)
	reg := obs.NewRegistry()
	web.Metrics = reg

	healthy := []string{"ok1.example", "ok2.example", "ok3.example", "ok4.example", "ok5.example", "ok6.example"}
	faulty := []string{"dead.example", "hung.example", "busy.example", "flap.example"}
	var entries []hotlist.Entry
	for _, h := range append(append([]string{}, healthy...), faulty...) {
		site := web.Site(h)
		for _, p := range []string{"/a", "/b", "/c"} {
			site.Page(p).Set("content of " + h + p)
			entries = append(entries, hotlist.Entry{URL: "http://" + h + p, Title: h + p})
		}
	}

	client := webclient.New(web)
	client.Clock = clock
	client.Metrics = reg
	// The per-attempt timeout is wall time — it is what unsticks a hung
	// host — and bounds every attempt at 50ms of real time.
	client.Timeout = 50 * time.Millisecond
	client.Retry = webclient.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Second, MaxDelay: time.Minute}
	client.Breakers = breaker.NewSet(breaker.Config{FailureThreshold: 3, Cooldown: 10 * time.Minute})
	client.Breakers.Clock = clock
	client.Breakers.Metrics = reg

	tr := tracker.New(client, mustCfg(t, "Default 0\n"), hotlist.NewHistory(), clock)
	tr.Metrics = reg
	tr.Opt.Concurrency = 4

	// Sweep 0: everything healthy, so every URL gains last-known-good
	// state for later staleness marking.
	for _, res := range tr.Run(context.Background(), entries) {
		if res.Status != tracker.Changed {
			t.Fatalf("healthy sweep: %s = %+v", res.Entry.URL, res)
		}
	}

	// Inject the faults: a dead host, a wedged host, a host shedding
	// every request with 503 + Retry-After, and a host down for the
	// first half-hour of every two-hour window.
	web.Site("dead.example").SetDown(true)
	web.Site("hung.example").SetHang(true)
	web.Site("busy.example").SetFaults(websim.FaultProfile{Seed: 7, FailProb: 1, RetryAfter: 30 * time.Second})
	web.Site("flap.example").SetFaults(websim.FaultProfile{FlapPeriod: 2 * time.Hour, FlapDown: 30 * time.Minute})

	// Sweep 1, degraded: it must complete — one result per entry — with
	// the faulty hosts' URLs failed-stale or skipped, and never hang
	// longer than the per-attempt timeout budget allows.
	wallStart := time.Now()
	results := tr.Run(context.Background(), entries)
	if wall := time.Since(wallStart); wall > 5*time.Second {
		t.Errorf("degraded sweep took %v of wall time; hung hosts are not being cut off", wall)
	}
	if len(results) != len(entries) {
		t.Fatalf("degraded sweep returned %d results for %d entries", len(results), len(entries))
	}
	perHost := map[string]tracker.HostCounts{}
	for _, hc := range tracker.HostSummary(results) {
		perHost[hc.Host] = hc
	}
	for _, h := range healthy {
		if hc := perHost[h]; hc.OK != 3 || hc.Degraded+hc.Skipped+hc.Failed != 0 {
			t.Errorf("healthy host %s: %+v, want 3 ok", h, hc)
		}
	}
	for _, h := range faulty {
		hc := perHost[h]
		if hc.OK != 0 {
			t.Errorf("faulty host %s: %+v, want 0 ok", h, hc)
		}
		if hc.Degraded == 0 {
			t.Errorf("faulty host %s: %+v, want >=1 degraded (stale last-known-good)", h, hc)
		}
		if hc.Degraded+hc.Skipped+hc.Failed != 3 {
			t.Errorf("faulty host %s: %+v does not account for its 3 URLs", h, hc)
		}
	}

	// The dead host's breaker must be open and fail the next request
	// fast, with the distinct Tripped classification.
	if st := client.Breakers.For("dead.example").State(); st != breaker.Open {
		t.Errorf("dead.example breaker = %v, want Open", st)
	}
	if _, err := client.Get(context.Background(), "http://dead.example/a"); !errors.Is(err, webclient.ErrBreakerOpen) {
		t.Errorf("request to tripped host: %v, want ErrBreakerOpen", err)
	} else if webclient.Classify(0, err) != webclient.Tripped {
		t.Errorf("tripped error classified %v", webclient.Classify(0, err))
	}
	if n := reg.Counter("breaker.trips").Value(); n < 2 {
		t.Errorf("breaker.trips = %d, want >= 2 (dead + busy at least)", n)
	}
	if reg.Counter("breaker.short_circuits").Value() == 0 {
		t.Error("breaker.short_circuits = 0, want > 0")
	}
	if reg.Counter("tracker.checks.degraded").Value() == 0 {
		t.Error("tracker.checks.degraded = 0, want > 0")
	}

	// /debug/health on an AIDE server sharing the client shows the
	// tripped hosts and the load-shedding gate.
	fac, err := snapshot.New(t.TempDir(), client, clock)
	if err != nil {
		t.Fatal(err)
	}
	server := aide.NewServer(fac, client, mustCfg(t, "Default 0\n"), clock)
	server.Metrics = reg
	server.MaxSimultaneous = 8
	aideSrv := httptest.NewServer(server.Handler(nil))
	defer aideSrv.Close()
	code, body := httpGet(t, aideSrv.URL+"/debug/health")
	if code != 200 {
		t.Fatalf("/debug/health: %d", code)
	}
	var health snapshot.HealthStatus
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/debug/health decode: %v\n%s", err, body)
	}
	if health.Status != "degraded" || health.OpenHosts == 0 {
		t.Errorf("health = %s with %d open hosts, want degraded with > 0\n%s",
			health.Status, health.OpenHosts, body)
	}
	foundDead := false
	for _, b := range health.Breakers {
		if b.Host == "dead.example" && b.State == "open" {
			foundDead = true
		}
	}
	if !foundDead {
		t.Errorf("dead.example not reported open in /debug/health:\n%s", body)
	}
	if health.Gate == nil || health.Gate.Capacity != 8 {
		t.Errorf("gate missing or wrong capacity in /debug/health:\n%s", body)
	}

	// The faults clear and the breaker cooldown passes: the next sweep's
	// half-open probes succeed, breakers close, and every host is OK.
	web.Site("dead.example").SetDown(false)
	web.Site("hung.example").SetHang(false)
	web.Site("busy.example").ClearFaults()
	web.Site("flap.example").ClearFaults()
	clock.Advance(15 * time.Minute)
	results = tr.Run(context.Background(), entries)
	for _, hc := range tracker.HostSummary(results) {
		if hc.OK != 3 {
			t.Errorf("after recovery, host %q: %+v, want 3 ok", hc.Host, hc)
		}
	}
	for _, h := range faulty {
		if st := client.Breakers.For(h).State(); st != breaker.Closed {
			t.Errorf("after recovery, %s breaker = %v, want Closed", h, st)
		}
	}
	if reg.Counter("breaker.recoveries").Value() == 0 {
		t.Error("breaker.recoveries = 0, want > 0")
	}
}

// rtFunc adapts a function to webclient.Transport for test hooks.
type rtFunc func(ctx context.Context, req *webclient.Request) (*webclient.Response, error)

func (f rtFunc) RoundTrip(ctx context.Context, req *webclient.Request) (*webclient.Response, error) {
	return f(ctx, req)
}

// TestChaosLoadSheddingRetryAfter closes the shedding loop over real
// sockets: a full gate answers 503 with Retry-After, and the client's
// retry policy honours the advertised pause instead of its own backoff.
func TestChaosLoadSheddingRetryAfter(t *testing.T) {
	checkGoroutineLeaks(t)
	release := make(chan struct{})
	occupied := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(occupied)
			<-release
		}
		w.WriteHeader(200)
		w.Write([]byte("served"))
	})
	gate := snapshot.NewGate(slow, 1)
	gate.RetryAfter = 3 * time.Second
	gate.Metrics = obs.NewRegistry()
	srv := httptest.NewServer(gate)
	defer srv.Close()

	// Occupy the single slot.
	go func() {
		resp, err := http.Get(srv.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-occupied

	clock := simclock.New(time.Time{})
	reg := obs.NewRegistry()
	client := webclient.New(&webclient.HTTPTransport{})
	client.Clock = clock
	client.Metrics = reg
	client.Retry = webclient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Second, MaxDelay: time.Minute}

	// Retry pauses run on the simulated clock, so the retry follows the
	// shed attempt with no wall delay: free the slot from inside the
	// transport, after the first 503 lands but before the retry fires.
	base := client.Transport
	released := false
	client.Transport = rtFunc(func(ctx context.Context, req *webclient.Request) (*webclient.Response, error) {
		resp, err := base.RoundTrip(ctx, req)
		if err == nil && resp.Status == 503 && !released {
			released = true
			close(release)
			for gate.InFlight() != 0 { // wait for the slow request to drain
				time.Sleep(time.Millisecond)
			}
		}
		return resp, err
	})

	// First attempt is shed with 503 + Retry-After; the freed slot lets
	// the retry succeed. The pause is the server's 3s hint (spent on the
	// simulated clock), not the 1s backoff.
	info, err := client.Get(context.Background(), srv.URL+"/fast")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != 200 || info.Body != "served" {
		t.Fatalf("after shedding: %+v", info)
	}
	if got := clock.Now().Sub(simclock.Epoch); got != 3*time.Second {
		t.Errorf("retry pause = %v, want the advertised 3s", got)
	}
	if n := reg.CounterVec("webclient.retries", "cause").With("retry-after").Value(); n != 1 {
		t.Errorf("retry-after retries = %d, want 1", n)
	}
	if gate.Rejected() == 0 {
		t.Error("gate rejected nothing")
	}
}
