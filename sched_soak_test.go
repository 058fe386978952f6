package bench

// Scheduler soak: the continuous adaptive scheduler (internal/sched)
// driven over a simulated web for two days must (a) converge
// fast-changing pages to the minimum interval and stagnant ones toward
// the maximum, (b) spend strictly fewer fetches than the equivalent
// lockstep batch sweep at the fast rate, (c) exercise the politeness
// and breaker deferral paths under chaos, and (d) be bit-for-bit
// deterministic across two same-seed runs. Run with -race in CI (the
// chaos job).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"aide/internal/aide"
	"aide/internal/breaker"
	"aide/internal/hotlist"
	"aide/internal/obs"
	"aide/internal/sched"
	"aide/internal/simclock"
	"aide/internal/snapshot"
	"aide/internal/tracker"
	"aide/internal/webclient"
	"aide/internal/websim"
)

const (
	soakMin   = 10 * time.Minute
	soakMax   = 8 * time.Hour
	soakTicks = 2 * 24 * 6 // two simulated days at 10-minute ticks
)

// soakWeb builds the fixed chaos topology: three fast pages sharing one
// host (so politeness bites when they come due together), one stagnant
// page, and a fast page on a host that goes dark for an hour out of
// every four (so its breaker trips and the scheduler must defer it).
func soakWeb(clock *simclock.Sim, reg *obs.Registry) (*websim.Web, []hotlist.Entry) {
	web := websim.New(clock)
	web.Metrics = reg
	var entries []hotlist.Entry
	fastSite := web.Site("fast.example")
	for i := 0; i < 3; i++ {
		p := fastSite.Page(fmt.Sprintf("/news%d", i))
		p.Set("v0\n")
		web.Evolve(p, soakMin, websim.AppendGenerator("item", int64(i+1)))
		entries = append(entries, hotlist.Entry{URL: p.URL(), Title: p.URL()})
	}
	still := web.Site("still.example").Page("/doc")
	still.Set("static\n")
	entries = append(entries, hotlist.Entry{URL: still.URL(), Title: "still"})
	flaky := web.Site("flaky.example")
	fp := flaky.Page("/feed")
	fp.Set("f0\n")
	web.Evolve(fp, soakMin, websim.AppendGenerator("feed", 9))
	flaky.SetFaults(websim.FaultProfile{FlapPeriod: 4 * time.Hour, FlapDown: time.Hour})
	entries = append(entries, hotlist.Entry{URL: fp.URL(), Title: "flaky"})
	return web, entries
}

type soakRun struct {
	fetches   int            // total HEAD+GET requests the web served
	polls     map[string]int // scheduler polls per URL
	intervals map[string]float64
	reg       *obs.Registry
}

func runSchedulerSoak(t *testing.T, seed int64) soakRun {
	t.Helper()
	clock := simclock.New(time.Time{})
	reg := obs.NewRegistry()
	web, entries := soakWeb(clock, reg)

	client := webclient.New(web)
	client.Clock = clock
	client.Metrics = reg
	client.Breakers = breaker.NewSet(breaker.Config{FailureThreshold: 3, Cooldown: 30 * time.Minute})
	client.Breakers.Clock = clock
	client.Breakers.Metrics = reg

	hist := hotlist.NewHistory()
	tr := tracker.New(client, mustCfg(t, "Default 0\n"), hist, clock)
	tr.Metrics = reg

	byURL := map[string]hotlist.Entry{}
	for _, e := range entries {
		byURL[e.URL] = e
	}

	sc := sched.New(sched.Config{
		MinInterval:  soakMin,
		MaxInterval:  soakMax,
		HostRPS:      1,
		HostBurst:    2,
		Seed:         seed,
		BreakerDefer: 15 * time.Minute,
	})
	sc.Clock = clock
	sc.Metrics = reg
	sc.Breakers = client.Breakers

	var pollMu sync.Mutex
	polls := map[string]int{}
	sc.Poll = func(ctx context.Context, url string) sched.Outcome {
		pollMu.Lock()
		polls[url]++
		pollMu.Unlock()
		res := tr.CheckEntry(ctx, byURL[url])
		switch {
		case res.Stale || res.Status == tracker.Failed:
			return sched.Failed
		case res.Status == tracker.Changed:
			// Mark the change seen so the next poll measures
			// change-since-last-poll, which is what the estimator wants.
			hist.Visit(url, clock.Now())
			return sched.Changed
		case res.Status == tracker.Unchanged:
			return sched.Unchanged
		default:
			return sched.Skipped
		}
	}
	for _, e := range entries { // fixed order: Add order feeds heap tie-breaks
		sc.Add(e.URL)
	}

	for i := 0; i < soakTicks; i++ {
		web.Advance(soakMin)
		sc.Tick(context.Background())
	}

	heads, gets := web.TotalRequests()
	intervals := map[string]float64{}
	for _, u := range sc.SnapshotState().URLs {
		intervals[u.URL] = u.IntervalSeconds
	}
	return soakRun{fetches: heads + gets, polls: polls, intervals: intervals, reg: reg}
}

// runBatchSweepBaseline replays the same simulated span with the
// lockstep strategy the scheduler replaces: every URL checked every
// soakMin, because a batch sweep must run at the fastest rate any page
// needs. Returns the total requests the web served.
func runBatchSweepBaseline(t *testing.T) int {
	t.Helper()
	clock := simclock.New(time.Time{})
	reg := obs.NewRegistry()
	web, entries := soakWeb(clock, reg)

	client := webclient.New(web)
	client.Clock = clock
	client.Breakers = breaker.NewSet(breaker.Config{FailureThreshold: 3, Cooldown: 30 * time.Minute})
	client.Breakers.Clock = clock

	hist := hotlist.NewHistory()
	tr := tracker.New(client, mustCfg(t, "Default 0\n"), hist, clock)
	for i := 0; i < soakTicks; i++ {
		web.Advance(soakMin)
		for _, res := range tr.Run(context.Background(), entries) {
			if res.Status == tracker.Changed && !res.Stale {
				hist.Visit(res.Entry.URL, clock.Now())
			}
		}
	}
	heads, gets := web.TotalRequests()
	return heads + gets
}

func TestChaosSchedulerSoak(t *testing.T) {
	checkGoroutineLeaks(t)
	run := runSchedulerSoak(t, 42)

	// Adaptivity: the fast pages converge to the floor, the stagnant one
	// backs off to at least half the ceiling.
	for i := 0; i < 3; i++ {
		url := fmt.Sprintf("http://fast.example/news%d", i)
		iv := run.intervals[url]
		if iv == 0 || iv > (2*soakMin).Seconds() {
			t.Errorf("fast page %s interval = %.0fs, want near %v", url, iv, soakMin)
		}
	}
	if iv := run.intervals["http://still.example/doc"]; iv < (soakMax / 2).Seconds() {
		t.Errorf("stagnant page interval = %.0fs, want >= %v", iv, soakMax/2)
	}
	// And the realized effort follows: each fast page polled many more
	// times than the stagnant one.
	stillPolls := run.polls["http://still.example/doc"]
	for i := 0; i < 3; i++ {
		url := fmt.Sprintf("http://fast.example/news%d", i)
		if run.polls[url] < 3*stillPolls {
			t.Errorf("fast page %s polled %d times vs stagnant %d, want > 3x",
				url, run.polls[url], stillPolls)
		}
	}

	// Economy: strictly fewer fetches than the lockstep sweep over the
	// identical web and span.
	batch := runBatchSweepBaseline(t)
	if run.fetches >= batch {
		t.Errorf("scheduler spent %d fetches, batch sweep %d: adaptive polling should cost strictly less",
			run.fetches, batch)
	} else {
		t.Logf("fetches: scheduler %d vs batch sweep %d", run.fetches, batch)
	}

	// Chaos pressure showed up as deferrals, not busy-polling: the three
	// fast pages share one host (burst 2), and the flaky host's breaker
	// opened during its dark hours.
	if n := run.reg.Counter("sched.deferred.politeness").Value(); n == 0 {
		t.Error("sched.deferred.politeness = 0, want > 0 (3 URLs on one host, burst 2)")
	}
	if n := run.reg.Counter("sched.deferred.breaker").Value(); n == 0 {
		t.Error("sched.deferred.breaker = 0, want > 0 (flaky host trips its breaker)")
	}
	if n := run.reg.CounterVec("sched.polls", "outcome").With("failed").Value(); n == 0 {
		t.Error(`sched.polls{outcome="failed"} = 0, want > 0 (flaky host's dark hours)`)
	}
}

func TestChaosSchedulerSoakDeterministic(t *testing.T) {
	checkGoroutineLeaks(t)
	a := runSchedulerSoak(t, 7)
	b := runSchedulerSoak(t, 7)
	if a.fetches != b.fetches {
		t.Errorf("same-seed runs fetched %d vs %d", a.fetches, b.fetches)
	}
	if !reflect.DeepEqual(a.polls, b.polls) {
		t.Errorf("same-seed runs diverge in per-URL polls:\n%v\n%v", a.polls, b.polls)
	}
	if !reflect.DeepEqual(a.intervals, b.intervals) {
		t.Errorf("same-seed runs diverge in final intervals:\n%v\n%v", a.intervals, b.intervals)
	}
}

// TestSchedulerDebugEndpoint covers /debug/sched over the real AIDE
// handler: 404 in batch-sweep mode, then a JSON snapshot once a
// scheduler is attached, with sched.* metrics flowing into the shared
// registry.
func TestSchedulerDebugEndpoint(t *testing.T) {
	checkGoroutineLeaks(t)
	clock := simclock.New(time.Time{})
	web := websim.New(clock)
	web.Site("h.example").Page("/p").Set("hello\n")

	client := webclient.New(web)
	client.Clock = clock
	reg := obs.NewRegistry()
	client.Metrics = reg

	fac, err := snapshot.New(t.TempDir(), client, clock)
	if err != nil {
		t.Fatal(err)
	}
	server := aide.NewServer(fac, client, mustCfg(t, "Default 0\n"), clock)
	server.Metrics = reg
	aideSrv := httptest.NewServer(server.Handler(nil))
	defer aideSrv.Close()

	if code, _ := httpGet(t, aideSrv.URL+"/debug/sched"); code != 404 {
		t.Fatalf("/debug/sched without scheduler = %d, want 404", code)
	}

	sc := server.StartScheduler(sched.Config{MinInterval: time.Minute, MaxInterval: time.Hour, HostRPS: 100})
	server.Register("alice", aide.Registration{URL: "http://h.example/p", Title: "P"})
	clock.Advance(2 * time.Minute)
	sc.Tick(context.Background())

	code, body := httpGet(t, aideSrv.URL+"/debug/sched")
	if code != 200 {
		t.Fatalf("/debug/sched = %d\n%s", code, body)
	}
	var snap sched.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/sched decode: %v\n%s", err, body)
	}
	if snap.Queue != 1 || len(snap.URLs) != 1 || snap.URLs[0].URL != "http://h.example/p" {
		t.Errorf("/debug/sched snapshot = %+v, want the one tracked URL", snap)
	}
	if snap.URLs[0].Samples == 0 {
		t.Errorf("tracked URL never polled: %+v", snap.URLs[0])
	}

	// The sched.* metric family is live in /debug/metrics.
	code, body = httpGet(t, aideSrv.URL+"/debug/metrics")
	if code != 200 {
		t.Fatalf("/debug/metrics = %d", code)
	}
	var names []string
	for _, want := range []string{"sched.urls", "sched.queue_len", `sched.polls{outcome="changed"}`} {
		if !containsMetric(body, want) {
			names = append(names, want)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		t.Errorf("metrics missing %v in /debug/metrics:\n%s", names, body)
	}
}

func containsMetric(body, name string) bool {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return false
	}
	for _, section := range doc {
		var m map[string]json.RawMessage
		if json.Unmarshal(section, &m) == nil {
			if _, ok := m[name]; ok {
				return true
			}
		}
	}
	return false
}
