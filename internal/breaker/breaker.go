// Package breaker implements per-host circuit breakers for AIDE's fetch
// path. Douglis & Ball note (§3.1) that hosts on the 1996 web were
// routinely unreachable, overloaded, or flapping; a sweep over a large
// hotlist must not pay a full connect-timeout-retry cycle for every URL
// on a host that is already known to be dead. A Breaker watches the
// outcomes of calls to one host and, after a run of host-level failures,
// trips: further calls fail fast without touching the wire until a
// cooldown passes, after which a bounded number of probe requests decide
// whether the host has recovered.
//
// States follow the classic three-state machine:
//
//	Closed   -> calls flow; consecutive failures are counted.
//	Open     -> calls are short-circuited until Cooldown elapses.
//	HalfOpen -> up to HalfOpenProbes in-flight probes are admitted;
//	            one success closes the breaker, one failure re-opens it
//	            with a full fresh cooldown.
//
// Time is read from an injected simclock.Clock, so breaker schedules are
// deterministic under simulated time, and transitions are exported to an
// obs.Registry (trips, recoveries, short-circuits, open-host gauge) for
// the /debug/health and /debug/metrics endpoints.
package breaker

import (
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"aide/internal/obs"
	"aide/internal/simclock"
)

// State is a breaker's position in the closed/open/half-open machine.
type State int

// Breaker states.
const (
	// Closed: calls flow normally.
	Closed State = iota
	// Open: calls fail fast until the cooldown elapses.
	Open
	// HalfOpen: a bounded number of probes test the host.
	HalfOpen
)

// String names the state as /debug/health shows it.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Config tunes a breaker. The zero value gets conservative defaults.
type Config struct {
	// FailureThreshold is how many consecutive host-level failures trip
	// the breaker (default 5).
	FailureThreshold int
	// Cooldown is how long a tripped breaker stays open before admitting
	// probes (default 1 minute).
	Cooldown time.Duration
	// HalfOpenProbes bounds the number of simultaneous probe calls while
	// half-open (default 1).
	HalfOpenProbes int
}

func (c Config) threshold() int {
	if c.FailureThreshold > 0 {
		return c.FailureThreshold
	}
	return 5
}

func (c Config) cooldown() time.Duration {
	if c.Cooldown > 0 {
		return c.Cooldown
	}
	return time.Minute
}

func (c Config) probes() int {
	if c.HalfOpenProbes > 0 {
		return c.HalfOpenProbes
	}
	return 1
}

// Breaker is the circuit breaker for one host. Use a Set to manage one
// per host; the zero value is not usable.
type Breaker struct {
	host    string
	cfg     Config
	clock   simclock.Clock
	metrics *obs.Registry

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probes   int       // in-flight probes while half-open
	trips    int64     // lifetime trip count
	shorted  int64     // lifetime short-circuited calls
}

// Allow reports whether a call to the host may proceed. While open it
// returns false (the call must fail fast) until the cooldown elapses,
// at which point the breaker turns half-open and admits up to
// HalfOpenProbes concurrent probes. Every Allow()==true call must be
// followed by exactly one Record with the call's outcome.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clock.Now().Sub(b.openedAt) < b.cfg.cooldown() {
			b.shortCircuitLocked()
			return false
		}
		b.transitionLocked(HalfOpen)
		b.probes = 1
		b.metrics.Counter("breaker.probes").Inc()
		return true
	case HalfOpen:
		if b.probes >= b.cfg.probes() {
			b.shortCircuitLocked()
			return false
		}
		b.probes++
		b.metrics.Counter("breaker.probes").Inc()
		return true
	}
	return true
}

// Record reports the outcome of a call previously admitted by Allow.
// Success means the host answered at all (any response, even an error
// status below 500, proves the host is alive); failure means a
// host-level problem — transport error, timeout, or 5xx.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if success {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.threshold() {
			b.tripLocked()
		}
	case HalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if success {
			b.transitionLocked(Closed)
			b.failures = 0
			b.metrics.Counter("breaker.recoveries").Inc()
		} else {
			// The probe failed: back to open with a full fresh cooldown.
			b.tripLocked()
		}
	case Open:
		// A straggler admitted before the trip; its outcome is stale.
	}
}

// tripLocked moves to Open and restarts the cooldown; b.mu must be held.
func (b *Breaker) tripLocked() {
	b.transitionLocked(Open)
	b.openedAt = b.clock.Now()
	b.probes = 0
	b.trips++
	b.metrics.Counter("breaker.trips").Inc()
}

// shortCircuitLocked accounts one rejected call; b.mu must be held.
func (b *Breaker) shortCircuitLocked() {
	b.shorted++
	b.metrics.Counter("breaker.short_circuits").Inc()
}

// transitionLocked switches state, maintaining the open-host gauge and
// the transition log; b.mu must be held.
func (b *Breaker) transitionLocked(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if from == Open {
		b.metrics.Gauge("breaker.open_hosts").Add(-1)
	}
	if to == Open {
		b.metrics.Gauge("breaker.open_hosts").Add(1)
	}
	obs.Logger().Info("breaker transition", "host", b.host, "from", from.String(), "to", to.String())
}

// Ready reports whether a call admitted right now would be allowed,
// without the side effects of Allow: no state transition, no probe
// slot consumed, no short-circuit counted. An open breaker past its
// cooldown reads ready (a probe would be admitted), which is what
// schedulers need — polling State alone would defer such a host
// forever, since State stays Open until an Allow promotes it.
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		return b.clock.Now().Sub(b.openedAt) >= b.cfg.cooldown()
	case HalfOpen:
		return b.probes < b.cfg.probes()
	}
	return true
}

// State returns the breaker's current state without side effects: an
// open breaker past its cooldown still reads Open until a call's Allow
// promotes it to half-open.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// HostState is one host's breaker status, as served by /debug/health.
type HostState struct {
	// Host is the host[:port] the breaker guards.
	Host string `json:"host"`
	// State is "closed", "open", or "half-open".
	State string `json:"state"`
	// ConsecutiveFailures is the current failure run while closed.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Trips is the lifetime number of times the breaker opened.
	Trips int64 `json:"trips"`
	// ShortCircuits is the lifetime number of calls rejected fast.
	ShortCircuits int64 `json:"short_circuits"`
	// OpenedAt is when the breaker last tripped (omitted if never).
	OpenedAt time.Time `json:"opened_at,omitzero"`
}

// Snapshot captures one breaker's state for health reporting — the
// single-breaker form of Set.Snapshot, for callers (the snapshot
// replicator's per-replica health) that track breakers individually.
func (b *Breaker) Snapshot() HostState {
	return b.snapshot()
}

// snapshot captures the breaker's state for health reporting.
func (b *Breaker) snapshot() HostState {
	b.mu.Lock()
	defer b.mu.Unlock()
	hs := HostState{
		Host:                b.host,
		State:               b.state.String(),
		ConsecutiveFailures: b.failures,
		Trips:               b.trips,
		ShortCircuits:       b.shorted,
	}
	if b.trips > 0 {
		hs.OpenedAt = b.openedAt
	}
	return hs
}

// Set manages one Breaker per host, sharing a config, clock, and
// metrics registry. The zero value is usable; configure before first
// use (fields are read when each breaker is created).
type Set struct {
	// Config applies to every breaker created by For.
	Config Config
	// Clock paces cooldowns; wall clock when nil.
	Clock simclock.Clock
	// Metrics receives trips/recoveries/short-circuit counters and the
	// open-host gauge; obs.Default when nil.
	Metrics *obs.Registry

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewSet returns a Set with the given config.
func NewSet(cfg Config) *Set {
	return &Set{Config: cfg}
}

// For returns (creating on first use) the breaker for host.
func (s *Set) For(host string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*Breaker)
	}
	b, ok := s.m[host]
	if !ok {
		clock := s.Clock
		if clock == nil {
			clock = simclock.Wall{}
		}
		metrics := s.Metrics
		if metrics == nil {
			metrics = obs.Default
		}
		b = &Breaker{host: host, cfg: s.Config, clock: clock, metrics: metrics}
		s.m[host] = b
	}
	return b
}

// Snapshot lists every breaker's state, sorted by host — the payload of
// the /debug/health endpoint.
func (s *Set) Snapshot() []HostState {
	s.mu.Lock()
	breakers := make([]*Breaker, 0, len(s.m))
	for _, b := range s.m {
		breakers = append(breakers, b)
	}
	s.mu.Unlock()
	out := make([]HostState, 0, len(breakers))
	for _, b := range breakers {
		out = append(out, b.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// HostKey is the one host identity shared by the fetch path's breakers,
// the sweeps' host lanes and the scheduler's politeness buckets: the
// URL's lowercased host[:port], or "" when the URL has no authority
// (form:<id>, file paths, unparseable input).
func HostKey(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Host)
}
