package breaker

import (
	"sync"
	"testing"
	"time"

	"aide/internal/obs"
	"aide/internal/simclock"
)

func newTestSet(cfg Config) (*Set, *simclock.Sim, *obs.Registry) {
	clock := simclock.New(time.Time{})
	reg := obs.NewRegistry()
	s := NewSet(cfg)
	s.Clock = clock
	s.Metrics = reg
	return s, clock, reg
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	s, _, reg := newTestSet(Config{FailureThreshold: 3, Cooldown: time.Minute})
	b := s.For("dead.example")
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("Allow() = false after %d failures", i)
		}
		b.Record(false)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v before threshold, want Closed", b.State())
	}
	b.Allow()
	b.Record(false) // third consecutive failure
	if b.State() != Open {
		t.Fatalf("state = %v after threshold, want Open", b.State())
	}
	if b.Allow() {
		t.Error("Allow() = true while open within cooldown")
	}
	if got := reg.Counter("breaker.trips").Value(); got != 1 {
		t.Errorf("breaker.trips = %d, want 1", got)
	}
	if got := reg.Counter("breaker.short_circuits").Value(); got != 1 {
		t.Errorf("breaker.short_circuits = %d, want 1", got)
	}
	if got := reg.Gauge("breaker.open_hosts").Value(); got != 1 {
		t.Errorf("breaker.open_hosts = %d, want 1", got)
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	s, _, _ := newTestSet(Config{FailureThreshold: 3})
	b := s.For("flaky.example")
	// Failures interleaved with successes never reach the threshold.
	for i := 0; i < 10; i++ {
		b.Allow()
		b.Record(false)
		b.Allow()
		b.Record(false)
		b.Allow()
		b.Record(true)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want Closed (successes reset the run)", b.State())
	}
}

// The half-open contract (ISSUE 3 satellite): after the cooldown a
// single probe is admitted, concurrent calls are still shed, a probe
// success closes the breaker, and a probe failure re-opens it with the
// full cooldown.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	cooldown := 2 * time.Minute
	s, clock, reg := newTestSet(Config{FailureThreshold: 1, Cooldown: cooldown, HalfOpenProbes: 1})
	b := s.For("recovering.example")

	b.Allow()
	b.Record(false) // trips immediately (threshold 1)
	if b.State() != Open {
		t.Fatalf("state = %v, want Open", b.State())
	}
	clock.Advance(cooldown - time.Second)
	if b.Allow() {
		t.Fatal("Allow() = true before cooldown elapsed")
	}
	clock.Advance(time.Second)

	// Exactly one probe is admitted.
	if !b.Allow() {
		t.Fatal("Allow() = false after cooldown; want one probe admitted")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", b.State())
	}
	if b.Allow() {
		t.Fatal("second Allow() = true while probe in flight; probe budget is 1")
	}

	// Probe success closes the breaker.
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state after probe success = %v, want Closed", b.State())
	}
	if got := reg.Counter("breaker.recoveries").Value(); got != 1 {
		t.Errorf("breaker.recoveries = %d, want 1", got)
	}
	if got := reg.Gauge("breaker.open_hosts").Value(); got != 0 {
		t.Errorf("breaker.open_hosts = %d after recovery, want 0", got)
	}
}

func TestBreakerHalfOpenFailureReopensWithFullCooldown(t *testing.T) {
	cooldown := 5 * time.Minute
	s, clock, _ := newTestSet(Config{FailureThreshold: 1, Cooldown: cooldown})
	b := s.For("still-dead.example")

	b.Allow()
	b.Record(false)
	clock.Advance(cooldown)
	if !b.Allow() {
		t.Fatal("probe not admitted after cooldown")
	}
	b.Record(false) // probe fails: re-open
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want Open", b.State())
	}
	// The cooldown restarts in full: just short of it, still shedding.
	clock.Advance(cooldown - time.Second)
	if b.Allow() {
		t.Fatal("Allow() = true before the fresh cooldown elapsed")
	}
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted after the fresh cooldown")
	}
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state = %v, want Closed", b.State())
	}
}

func TestSetSnapshotSorted(t *testing.T) {
	s, _, _ := newTestSet(Config{FailureThreshold: 1})
	for _, h := range []string{"c.example", "a.example", "b.example"} {
		s.For(h)
	}
	b := s.For("b.example")
	b.Allow()
	b.Record(false)
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d hosts, want 3", len(snap))
	}
	for i, want := range []string{"a.example", "b.example", "c.example"} {
		if snap[i].Host != want {
			t.Errorf("snapshot[%d].Host = %q, want %q", i, snap[i].Host, want)
		}
	}
	if snap[1].State != "open" || snap[1].Trips != 1 {
		t.Errorf("b.example snapshot = %+v, want open with 1 trip", snap[1])
	}
	if snap[0].State != "closed" {
		t.Errorf("a.example snapshot = %+v, want closed", snap[0])
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	s, _, _ := newTestSet(Config{FailureThreshold: 3, Cooldown: time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := s.For("shared.example")
			for j := 0; j < 200; j++ {
				if b.Allow() {
					b.Record(j%3 == 0)
				}
			}
		}(i)
	}
	wg.Wait()
	// No assertion beyond the race detector and internal invariants.
	s.Snapshot()
}

func TestReadyHasNoSideEffects(t *testing.T) {
	s, clock, reg := newTestSet(Config{FailureThreshold: 1, Cooldown: time.Minute, HalfOpenProbes: 1})
	b := s.For("sched.example")
	if !b.Ready() {
		t.Fatal("Ready() = false while closed")
	}
	b.Allow()
	b.Record(false) // trip
	if b.Ready() {
		t.Error("Ready() = true while open within cooldown")
	}
	// Unlike Allow, Ready does not count short-circuits.
	if got := reg.Counter("breaker.short_circuits").Value(); got != 0 {
		t.Errorf("Ready() counted %d short-circuits, want 0", got)
	}
	clock.Advance(time.Minute)
	// Past cooldown: a probe would be admitted, so Ready is true — but
	// the state must still read Open (no transition happened).
	if !b.Ready() {
		t.Error("Ready() = false past cooldown")
	}
	if b.State() != Open {
		t.Errorf("State() = %v after Ready(), want Open (no side effects)", b.State())
	}
	// One in-flight probe exhausts the half-open budget.
	if !b.Allow() {
		t.Fatal("Allow() = false past cooldown")
	}
	if b.Ready() {
		t.Error("Ready() = true with probe budget exhausted")
	}
	b.Record(true)
	if !b.Ready() || b.State() != Closed {
		t.Errorf("Ready()=%v State()=%v after recovery, want true/Closed", b.Ready(), b.State())
	}
}

func TestHostKey(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"http://h/p", "h"},
		{"http://h:8080/p", "h:8080"},
		{"https://secure.example/x", "secure.example"},
		{"HTTP://UPPER.example/", "upper.example"},
		{"http://Example.COM:81/a", "example.com:81"},
		{"http://h?x=1", "h"},
		{"file:/etc/motd", ""},
		{"form:watch-1", ""},
		{"not a url at all", ""},
		{"://bad", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := HostKey(c.in); got != c.want {
			t.Errorf("HostKey(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
