package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"aide/internal/breaker"
	"aide/internal/obs"
	"aide/internal/simclock"
)

// rig wires a scheduler to a scripted Poll function on a simulated
// clock. outcomes maps URL -> outcome; unlisted URLs poll Unchanged.
type rig struct {
	sched *Scheduler
	clock *simclock.Sim
	reg   *obs.Registry

	mu       sync.Mutex
	outcomes map[string]Outcome
	polls    map[string]int
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{
		clock:    simclock.New(time.Time{}),
		reg:      obs.NewRegistry(),
		outcomes: make(map[string]Outcome),
		polls:    make(map[string]int),
	}
	r.sched = New(cfg)
	r.sched.Clock = r.clock
	r.sched.Metrics = r.reg
	r.sched.Poll = func(_ context.Context, url string) Outcome {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.polls[url]++
		return r.outcomes[url]
	}
	return r
}

func (r *rig) pollCount(url string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.polls[url]
}

// drive advances the clock in steps of dt, ticking after each step.
func (r *rig) drive(t *testing.T, steps int, dt time.Duration) {
	t.Helper()
	for i := 0; i < steps; i++ {
		r.clock.Advance(dt)
		r.sched.Tick(context.Background())
	}
}

func (r *rig) itemFor(t *testing.T, url string) *item {
	t.Helper()
	r.sched.mu.Lock()
	defer r.sched.mu.Unlock()
	it, ok := r.sched.items[url]
	if !ok {
		t.Fatalf("URL %q not scheduled", url)
	}
	return it
}

func TestAdaptivityDivergesFastFromStagnant(t *testing.T) {
	cfg := Config{MinInterval: time.Minute, MaxInterval: time.Hour, HostRPS: 100, Seed: 7}
	r := newRig(t, cfg)
	r.outcomes["http://fast.example/a"] = Changed
	r.outcomes["http://slow.example/b"] = Unchanged
	r.sched.Add("http://fast.example/a")
	r.sched.Add("http://slow.example/b")

	r.drive(t, 600, 30*time.Second) // 5 simulated hours

	fast := r.itemFor(t, "http://fast.example/a")
	slow := r.itemFor(t, "http://slow.example/b")
	if fast.interval != cfg.MinInterval {
		t.Errorf("fast interval = %v, want exactly MinInterval %v", fast.interval, cfg.MinInterval)
	}
	if slow.interval < cfg.MaxInterval/2 {
		t.Errorf("stagnant interval = %v, want >= %v (half of MaxInterval)", slow.interval, cfg.MaxInterval/2)
	}
	if fp, sp := r.pollCount("http://fast.example/a"), r.pollCount("http://slow.example/b"); fp <= 3*sp {
		t.Errorf("fast polled %d times vs stagnant %d; want fast > 3x stagnant", fp, sp)
	}
}

func TestFloorBoundsInterval(t *testing.T) {
	cfg := Config{MinInterval: time.Minute, MaxInterval: time.Hour, HostRPS: 100}
	r := newRig(t, cfg)
	floor := 10 * time.Minute
	r.sched.Floor = func(url string) (time.Duration, bool) {
		if url == "http://never.example/x" {
			return 0, true
		}
		return floor, false
	}
	r.outcomes["http://floored.example/a"] = Changed
	if !r.sched.Add("http://floored.example/a") {
		t.Fatal("Add rejected a pollable URL")
	}
	if r.sched.Add("http://never.example/x") {
		t.Error("Add accepted a URL matching a `never` threshold")
	}
	if got := r.reg.Counter("sched.rejected_never").Value(); got != 1 {
		t.Errorf("sched.rejected_never = %d, want 1", got)
	}

	r.drive(t, 200, time.Minute)

	it := r.itemFor(t, "http://floored.example/a")
	if it.interval < floor {
		t.Errorf("interval = %v dropped below floor %v despite constant changes", it.interval, floor)
	}
	// Realized polls must respect the floor too: over 200 simulated
	// minutes at a 10-minute floor, at most ~21 polls fit.
	if n := r.pollCount("http://floored.example/a"); n > 21 {
		t.Errorf("polled %d times in 200m with a 10m floor; want <= 21", n)
	}
}

func TestPolitenessDefersBeyondBurst(t *testing.T) {
	cfg := Config{MinInterval: time.Minute, MaxInterval: time.Hour, HostRPS: 0.1, HostBurst: 2, Seed: 3}
	r := newRig(t, cfg)
	urls := []string{
		"http://busy.example/1",
		"http://busy.example/2",
		"http://busy.example/3",
		"http://busy.example/4",
	}
	for _, u := range urls {
		r.sched.Add(u)
	}
	// Everything comes due within the first minute of phase spread.
	r.clock.Advance(time.Minute)
	st := r.sched.Tick(context.Background())
	if st.Polled != 2 {
		t.Fatalf("first tick polled %d URLs, want burst of 2 (stats: %+v)", st.Polled, st)
	}
	if st.DeferredPoliteness != 2 {
		t.Fatalf("first tick deferred %d URLs for politeness, want 2", st.DeferredPoliteness)
	}
	if got := r.reg.Counter("sched.deferred.politeness").Value(); got != 2 {
		t.Errorf("sched.deferred.politeness = %d, want 2", got)
	}
	// The deferred pair must be staggered, not re-synchronised: their
	// due times differ by one emission interval (10s at 0.1 rps).
	r.sched.mu.Lock()
	var dues []time.Time
	for _, it := range r.sched.items {
		if it.samples == 0 && !it.polled {
			dues = append(dues, it.due)
		}
	}
	r.sched.mu.Unlock()
	if len(dues) != 2 {
		t.Fatalf("found %d unpolled items, want 2", len(dues))
	}
	gap := dues[1].Sub(dues[0])
	if gap < 0 {
		gap = -gap
	}
	if want := 10 * time.Second; gap != want {
		t.Errorf("deferred due times %v apart, want exactly one emission interval %v", gap, want)
	}
	// Draining the backlog: everything gets polled eventually.
	r.drive(t, 10, 30*time.Second)
	for _, u := range urls {
		if r.pollCount(u) == 0 {
			t.Errorf("URL %s never polled after deferral", u)
		}
	}
}

func TestBreakerNotReadyDefersHost(t *testing.T) {
	clock := simclock.New(time.Time{})
	reg := obs.NewRegistry()
	breakers := breaker.NewSet(breaker.Config{FailureThreshold: 1, Cooldown: 5 * time.Minute})
	breakers.Clock = clock
	breakers.Metrics = reg

	cfg := Config{MinInterval: time.Minute, MaxInterval: time.Hour, HostRPS: 100, BreakerDefer: time.Minute}
	r := newRig(t, cfg)
	r.sched.Clock = clock
	r.sched.Breakers = breakers
	r.sched.Add("http://dead.example/a")

	// Trip the host's breaker.
	b := breakers.For("dead.example")
	b.Allow()
	b.Record(false)
	if b.Ready() {
		t.Fatal("breaker ready immediately after tripping")
	}

	clock.Advance(2 * time.Minute)
	st := r.sched.Tick(context.Background())
	if st.Polled != 0 || st.DeferredBreaker != 1 {
		t.Fatalf("tick with tripped breaker: polled=%d deferred=%d, want 0/1", st.Polled, st.DeferredBreaker)
	}
	if got := r.reg.Counter("sched.deferred.breaker").Value(); got != 1 {
		t.Errorf("sched.deferred.breaker = %d, want 1", got)
	}
	if n := r.pollCount("http://dead.example/a"); n != 0 {
		t.Fatalf("tripped host polled %d times, want 0", n)
	}

	// Past the cooldown the breaker is Ready (a probe would be
	// admitted) and the scheduler resumes polling.
	clock.Advance(5 * time.Minute)
	st = r.sched.Tick(context.Background())
	if st.Polled != 1 {
		t.Fatalf("tick after cooldown polled %d, want 1 (stats: %+v)", st.Polled, st)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	const max = time.Hour
	a := Jitter("http://x.example/p", 42, max)
	b := Jitter("http://x.example/p", 42, max)
	if a != b {
		t.Errorf("Jitter not deterministic: %v vs %v", a, b)
	}
	if a < 0 || a >= max {
		t.Errorf("Jitter %v outside [0, %v)", a, max)
	}
	if Jitter("http://x.example/p", 43, max) == a && Jitter("http://y.example/q", 42, max) == a {
		t.Error("Jitter ignores both seed and key")
	}
	if Jitter("anything", 1, 0) != 0 {
		t.Error("Jitter with max<=0 should be 0")
	}
}

func TestPersistenceRoundtrip(t *testing.T) {
	path := t.TempDir() + "/sched.json"
	cfg := Config{MinInterval: time.Minute, MaxInterval: time.Hour, HostRPS: 100, Seed: 5}
	r := newRig(t, cfg)
	r.outcomes["http://fast.example/a"] = Changed
	r.sched.Add("http://fast.example/a")
	r.sched.Add("http://cold.example/b")
	r.drive(t, 60, time.Minute)

	before := r.itemFor(t, "http://fast.example/a")
	if before.samples == 0 {
		t.Fatal("no samples accumulated before save")
	}
	if err := r.sched.SaveState(path); err != nil {
		t.Fatalf("SaveState: %v", err)
	}

	r2 := newRig(t, cfg)
	r2.clock.Set(r.clock.Now())
	if err := r2.sched.LoadState(path); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	r2.sched.Add("http://fast.example/a")
	after := r2.itemFor(t, "http://fast.example/a")
	if after.rate != before.rate || after.samples != before.samples {
		t.Errorf("restored rate/samples = %v/%d, want %v/%d",
			after.rate, after.samples, before.rate, before.samples)
	}
	if after.interval != before.interval {
		t.Errorf("restored interval = %v, want %v", after.interval, before.interval)
	}
	// A URL absent from the new hotlist leaves no trace.
	if r2.sched.Len() != 1 {
		t.Errorf("restored queue length = %d, want 1", r2.sched.Len())
	}

	// Missing file is a clean first run.
	r3 := newRig(t, cfg)
	if err := r3.sched.LoadState(t.TempDir() + "/absent.json"); err != nil {
		t.Errorf("LoadState on missing file: %v", err)
	}
}

func TestCancelRequeuesWithoutLoss(t *testing.T) {
	cfg := Config{MinInterval: time.Minute, MaxInterval: time.Hour, HostRPS: 100, Workers: 1}
	r := newRig(t, cfg)
	urls := []string{"http://a.example/1", "http://b.example/2", "http://c.example/3"}
	for _, u := range urls {
		r.sched.Add(u)
	}
	r.clock.Advance(time.Minute)

	ctx, cancel := context.WithCancel(context.Background())
	polled := 0
	r.sched.Poll = func(_ context.Context, _ string) Outcome {
		polled++
		cancel() // cancel mid-tick after the first poll starts
		return Unchanged
	}
	st := r.sched.Tick(ctx)
	if st.Requeued == 0 {
		t.Fatalf("canceled tick requeued nothing (stats: %+v, polled: %d)", st, polled)
	}
	if st.Queue != len(urls) {
		t.Fatalf("queue = %d after canceled tick, want %d (no work lost)", st.Queue, len(urls))
	}
	// A later, uncanceled tick drains the requeued URLs.
	r.sched.Poll = func(_ context.Context, _ string) Outcome { return Unchanged }
	st = r.sched.Tick(context.Background())
	if st.Polled != st.Due || st.Polled == 0 {
		t.Fatalf("follow-up tick polled %d of %d due", st.Polled, st.Due)
	}
}

func TestRemoveMidSchedule(t *testing.T) {
	cfg := Config{MinInterval: time.Minute, MaxInterval: time.Hour, HostRPS: 100}
	r := newRig(t, cfg)
	r.sched.Add("http://a.example/1")
	r.sched.Add("http://b.example/2")
	r.sched.Remove("http://a.example/1")
	r.sched.Remove("http://ghost.example/none") // unknown: no-op
	if r.sched.Len() != 1 {
		t.Fatalf("Len = %d after remove, want 1", r.sched.Len())
	}
	r.drive(t, 5, time.Minute)
	if r.pollCount("http://a.example/1") != 0 {
		t.Error("removed URL was polled")
	}
	if r.pollCount("http://b.example/2") == 0 {
		t.Error("remaining URL never polled")
	}
}

func TestRunDrainsOnCancel(t *testing.T) {
	// Repeat on the wall clock with tiny intervals; cancel stops it.
	cfg := Config{MinInterval: 5 * time.Millisecond, MaxInterval: 20 * time.Millisecond,
		HostRPS: 1000, HostBurst: 10, IdleWait: 5 * time.Millisecond}
	s := New(cfg)
	reg := obs.NewRegistry()
	s.Metrics = reg
	var mu sync.Mutex
	polled := 0
	s.Poll = func(_ context.Context, _ string) Outcome {
		mu.Lock()
		polled++
		mu.Unlock()
		return Changed
	}
	s.Add("http://w.example/a")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Repeat(ctx, s.Clock, func() (time.Duration, bool) {
			_, wait := s.Step(ctx)
			return wait, true
		})
	}()

	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := polled
		mu.Unlock()
		if n >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("Repeat polled only %d times in 2s", n)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Repeat returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Repeat did not return after cancel")
	}
}

func TestSnapshotAndDebugHandler(t *testing.T) {
	cfg := Config{MinInterval: time.Minute, MaxInterval: time.Hour, HostRPS: 100, Seed: 2}
	r := newRig(t, cfg)
	r.outcomes["http://fast.example/a"] = Changed
	r.sched.Add("http://fast.example/a")
	r.sched.Add("http://slow.example/b")
	r.drive(t, 10, time.Minute)

	snap := r.sched.SnapshotState()
	if snap.Queue != 2 || len(snap.URLs) != 2 {
		t.Fatalf("snapshot queue=%d urls=%d, want 2/2", snap.Queue, len(snap.URLs))
	}
	if snap.NextDue.IsZero() {
		t.Error("snapshot NextDue is zero with a non-empty queue")
	}
	if len(snap.Hosts) == 0 {
		t.Error("snapshot has no host buckets after polling")
	}
	for _, u := range snap.URLs {
		if u.LastOutcome == "" {
			t.Errorf("URL %s has no last outcome after 10 ticks", u.URL)
		}
		if u.IntervalSeconds <= 0 {
			t.Errorf("URL %s has non-positive interval", u.URL)
		}
	}
	// Soonest-due-first ordering.
	for i := 1; i < len(snap.URLs); i++ {
		if snap.URLs[i].NextDue.Before(snap.URLs[i-1].NextDue) {
			t.Error("snapshot URLs not sorted by next due")
		}
	}
}

func TestEstimatorMapping(t *testing.T) {
	lo, hi := time.Minute, time.Hour
	cases := []struct {
		rate float64
		want time.Duration
	}{
		{1.0, lo},  // saturates at the floor
		{0.95, lo}, // still saturated
		{0.0, hi},  // saturates at the ceiling
		{0.05, hi}, // still saturated
	}
	for _, c := range cases {
		if got := intervalFor(c.rate, lo, hi); got != c.want {
			t.Errorf("intervalFor(%v) = %v, want %v", c.rate, got, c.want)
		}
	}
	mid := intervalFor(0.5, lo, hi)
	if mid <= lo || mid >= hi {
		t.Errorf("intervalFor(0.5) = %v, want strictly between %v and %v", mid, lo, hi)
	}
	// Monotone: higher rate, shorter interval.
	prev := hi + 1
	for _, rate := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		iv := intervalFor(rate, lo, hi)
		if iv > prev {
			t.Errorf("intervalFor not monotone at rate %v: %v > %v", rate, iv, prev)
		}
		prev = iv
	}
	// Degenerate bounds collapse to lo.
	if got := intervalFor(0.5, time.Hour, time.Hour); got != time.Hour {
		t.Errorf("intervalFor with lo==hi = %v, want %v", got, time.Hour)
	}
}

func TestObserveWarmupAndDecay(t *testing.T) {
	// First observation dominates.
	if r := observe(0, 0, true); r != 1.0 {
		t.Errorf("first changed observation rate = %v, want 1", r)
	}
	// A long changed run then a long unchanged run decays the rate.
	rate := 0.0
	for i := 0; i < 10; i++ {
		rate = observe(rate, i, true)
	}
	if rate < 0.9 {
		t.Errorf("rate after 10 changed = %v, want >= 0.9", rate)
	}
	for i := 10; i < 30; i++ {
		rate = observe(rate, i, false)
	}
	if rate > 0.1 {
		t.Errorf("rate after 20 unchanged = %v, want <= 0.1", rate)
	}
}
