// Package sched is AIDE's continuous polling scheduler: the successor to
// the lockstep batch sweeps that w3newer inherited from the paper.
//
// The paper's w3newer walks the whole hotlist once per run, gated only by
// the static per-URL-pattern thresholds of Table 1. That wastes fetches
// on pages that have not changed in months, lags behind pages that change
// hourly, and fires every host's first request at the same instant. This
// package replaces the sweep with a priority queue: each URL carries its
// own next-due time, computed from an exponentially weighted estimate of
// how often the page has actually been observed to change, bounded below
// by the Table 1 threshold (so the paper's semantics remain a floor) and
// above by a configurable maximum.
//
// The scheduler is built from four pieces:
//
//   - a min-heap of per-URL next-due times, with deterministic per-URL
//     jitter so rescheduled URLs do not re-synchronise;
//   - a per-URL change-rate estimator (see estimate.go) adapting each
//     interval between MinInterval and MaxInterval;
//   - per-host politeness: a GCRA token bucket per host (see bucket.go)
//     plus deferral of hosts whose circuit breaker is not ready, so a
//     tripped host is left alone rather than busy-polled;
//   - Drain (see drain.go), the host-lane executor that polls due URLs
//     host-serially through the caller-supplied Poll function, with
//     graceful drain on cancellation (undrained URLs are requeued, never
//     lost). w3newer passes and AIDE server sweeps run through it too.
//
// Two shared pieces sit around it. Outcome is the one per-check
// vocabulary, from w3newer's report to the estimator. Repeat is the one
// run loop: w3newer's -every passes and -daemon ticks and snapshotd's
// -sweep and -sched loops are each a step function handed to it, and
// Scheduler.Step is a scheduler's round: one tick plus the sleep until
// its next due time.
//
// Time comes from an injected simclock.Clock, and all randomness is
// derived from FNV-1a hashes of (seed, URL), so a simulated run is
// deterministic: same seed, same web, same schedule, byte for byte.
package sched

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"aide/internal/breaker"
	"aide/internal/obs"
	"aide/internal/simclock"
)

// Outcome classifies one check of one URL, in report order. It is the
// one per-check vocabulary: w3newer's report verdict, the AIDE server's
// sweep counts and the scheduler's Poll callback all use it. The
// estimator only learns from Changed and Unchanged; Skipped, Excluded
// and Failed reschedule without touching the change rate.
type Outcome int

// Check outcomes.
const (
	// Changed: the page had a new version.
	Changed Outcome = iota
	// Unchanged: the page was fetched (or HEAD-checked) and had not
	// changed.
	Unchanged
	// Skipped: the check was skipped (threshold not elapsed, host
	// error, canceled).
	Skipped
	// Excluded: robots.txt forbids automated retrieval.
	Excluded
	// Failed: the check errored (transport failure, breaker trip, …).
	Failed
)

// String names the outcome as metrics and /debug/sched show it.
func (o Outcome) String() string {
	switch o {
	case Changed:
		return "changed"
	case Unchanged:
		return "unchanged"
	case Skipped:
		return "skipped"
	case Excluded:
		return "excluded"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Counts tallies outcomes, indexed by Outcome.
type Counts [Failed + 1]int

// Config tunes a Scheduler. The zero value gets workable defaults.
type Config struct {
	// MinInterval is the shortest adapted poll interval (default 15m).
	// Per-URL threshold floors can only raise it.
	MinInterval time.Duration
	// MaxInterval is the longest adapted poll interval (default 7 days,
	// the paper's "weekly" outer threshold).
	MaxInterval time.Duration
	// HostRPS is the per-host politeness rate in requests per second
	// (default 1). Polls beyond it are deferred, not dropped.
	HostRPS float64
	// HostBurst is how many polls a host may absorb back to back before
	// the rate limit bites (default 2).
	HostBurst int
	// Workers bounds how many hosts are polled concurrently in one tick
	// (default 4). Within a host, polls are always serial.
	Workers int
	// JitterFrac is the fraction of each interval used as the jitter
	// window (default 0.1): a rescheduled URL comes due up to this much
	// early, spreading load without ever violating the floor.
	JitterFrac float64
	// Seed keys the deterministic jitter (default 0).
	Seed int64
	// BreakerDefer is how long a URL is pushed back when its host's
	// breaker is not ready (default 1m, matching the breaker cooldown).
	BreakerDefer time.Duration
	// IdleWait is what Wait returns when the queue is empty
	// (default 1s).
	IdleWait time.Duration
}

func (c Config) minInterval() time.Duration {
	if c.MinInterval > 0 {
		return c.MinInterval
	}
	return 15 * time.Minute
}

func (c Config) maxInterval() time.Duration {
	if c.MaxInterval > 0 {
		return c.MaxInterval
	}
	return 7 * 24 * time.Hour
}

func (c Config) hostRPS() float64 {
	if c.HostRPS > 0 {
		return c.HostRPS
	}
	return 1
}

func (c Config) hostBurst() int {
	if c.HostBurst > 0 {
		return c.HostBurst
	}
	return 2
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 4
}

func (c Config) jitterFrac() float64 {
	if c.JitterFrac > 0 {
		return c.JitterFrac
	}
	return 0.1
}

func (c Config) breakerDefer() time.Duration {
	if c.BreakerDefer > 0 {
		return c.BreakerDefer
	}
	return time.Minute
}

func (c Config) idleWait() time.Duration {
	if c.IdleWait > 0 {
		return c.IdleWait
	}
	return time.Second
}

// item is one scheduled URL.
type item struct {
	url  string
	host string // breaker.HostKey(url); "" for hostless URLs

	rate     float64       // EWMA of changed(1)/unchanged(0) outcomes
	samples  int           // informative polls so far
	interval time.Duration // current adapted interval
	floor    time.Duration // Table 1 threshold floor (0 = none)

	due         time.Time
	seq         int64 // tiebreak: FIFO among equal due times
	index       int   // heap index; -1 when popped
	lastPolled  time.Time
	lastOutcome Outcome
	polled      bool // lastPolled/lastOutcome are valid
}

// bucketKey names the item's politeness bucket: its host, or the URL
// itself for a hostless URL, which has no server to share a budget with.
func (it *item) bucketKey() string {
	if it.host != "" {
		return it.host
	}
	return it.url
}

// itemHeap is a min-heap on (due, seq).
type itemHeap []*item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *itemHeap) Push(x any) {
	it := x.(*item)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*h = old[:n-1]
	return it
}

// Scheduler drains a min-heap of per-URL due times through Drain,
// politely per host. Configure the exported fields before
// the first Add/Tick; they must not change afterwards.
type Scheduler struct {
	// Clock paces the schedule; wall clock when nil.
	Clock simclock.Clock
	// Metrics receives sched.* counters, gauges, and the interval
	// histogram; obs.Default when nil.
	Metrics *obs.Registry
	// Breakers, when set, defers whole hosts whose breaker is not ready
	// instead of letting every URL on a dead host fail individually.
	Breakers *breaker.Set
	// Poll checks one URL through the tracker/webclient path and reports
	// what happened. Required.
	Poll func(ctx context.Context, url string) Outcome
	// Floor, when set, returns the per-URL threshold floor (Table 1):
	// the adapted interval never drops below it, and never==true keeps
	// the URL out of the schedule entirely.
	Floor func(url string) (every time.Duration, never bool)

	cfg     Config
	cfgOnce sync.Once

	mu      sync.Mutex
	heap    itemHeap
	items   map[string]*item
	buckets map[string]*bucket
	loaded  map[string]persistEntry // state from LoadState, consumed by Add
	seq     int64
}

// New returns a scheduler with the given config. Set the exported
// fields (Clock, Poll, …) before use.
func New(cfg Config) *Scheduler {
	s := &Scheduler{}
	s.init(cfg)
	return s
}

func (s *Scheduler) init(cfg Config) {
	s.cfgOnce.Do(func() {
		s.cfg = cfg
		s.items = make(map[string]*item)
		s.buckets = make(map[string]*bucket)
	})
}

func (s *Scheduler) clock() simclock.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return simclock.Wall{}
}

func (s *Scheduler) metrics() *obs.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return obs.Default
}

// IntervalBuckets are the histogram bounds for sched.interval_seconds:
// one minute through the paper's weekly threshold.
var IntervalBuckets = []float64{60, 300, 900, 3600, 4 * 3600, 12 * 3600, 86400, 3 * 86400, 7 * 86400}

// Add schedules a URL. The first poll is spread deterministically over
// one minimum interval so a freshly loaded hotlist does not fire every
// request at the same instant. URLs matching a `never` threshold are
// rejected (returns false), as are duplicates (returns true: already
// scheduled). State previously loaded with LoadState is applied here.
func (s *Scheduler) Add(url string) bool {
	s.init(Config{})
	floor, never := time.Duration(0), false
	if s.Floor != nil {
		floor, never = s.Floor(url)
	}
	if never {
		s.metrics().Counter("sched.rejected_never").Inc()
		return false
	}
	now := s.clock().Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[url]; ok {
		return true
	}
	it := &item{
		url:      url,
		host:     breaker.HostKey(url),
		interval: maxDur(s.cfg.minInterval(), floor),
		floor:    floor,
		index:    -1,
	}
	if st, ok := s.loaded[url]; ok {
		it.rate = st.Rate
		it.samples = st.Samples
		if st.IntervalSeconds > 0 {
			it.interval = clampDur(time.Duration(st.IntervalSeconds*float64(time.Second)),
				maxDur(s.cfg.minInterval(), floor), s.cfg.maxInterval())
		}
		if !st.NextDue.IsZero() && st.NextDue.After(now) {
			it.due = st.NextDue
		}
		delete(s.loaded, url)
	}
	if it.due.IsZero() {
		// Phase-spread the first poll over one minimum interval.
		it.due = now.Add(Jitter(url, s.cfg.Seed, s.cfg.minInterval()))
	}
	it.seq = s.seq
	s.seq++
	s.items[url] = it
	heap.Push(&s.heap, it)
	s.metrics().Gauge("sched.urls").Set(int64(len(s.items)))
	return true
}

// Remove drops a URL from the schedule. Safe for unknown URLs.
func (s *Scheduler) Remove(url string) {
	s.init(Config{})
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[url]
	if !ok {
		return
	}
	delete(s.items, url)
	if it.index >= 0 {
		heap.Remove(&s.heap, it.index)
	}
	s.metrics().Gauge("sched.urls").Set(int64(len(s.items)))
}

// Len reports how many URLs are scheduled.
func (s *Scheduler) Len() int {
	s.init(Config{})
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// NextDue returns the earliest next-due time, or ok==false when the
// schedule is empty.
func (s *Scheduler) NextDue() (time.Time, bool) {
	s.init(Config{})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.heap.Len() == 0 {
		return time.Time{}, false
	}
	return s.heap[0].due, true
}

// TickStats summarises one Tick.
type TickStats struct {
	// Due is how many URLs had come due.
	Due int
	// Polled is how many of them were actually checked.
	Polled int
	// Outcomes breaks Polled down by outcome.
	Outcomes Counts
	// DeferredBreaker counts URLs pushed back because their host's
	// breaker was not ready; DeferredPoliteness counts URLs pushed back
	// by the per-host rate limit.
	DeferredBreaker, DeferredPoliteness int
	// Queue is the total number of scheduled URLs after the tick.
	Queue int
	// Requeued counts due URLs put back unpolled on cancellation.
	Requeued int
}

// Tick pops every URL at or past due, enforces breaker and politeness
// deferral per host, polls the survivors through Drain (hosts in
// parallel up to Workers, URLs within a host serial), reschedules each,
// and returns what happened. When ctx is canceled mid-tick the URLs
// Drain never started are requeued at their old due times — a drained
// tick never loses work.
func (s *Scheduler) Tick(ctx context.Context) TickStats {
	s.init(Config{})
	clock := s.clock()
	m := s.metrics()
	now := clock.Now()
	var st TickStats

	// Pop everything due, preserving (due, seq) order.
	s.mu.Lock()
	var due []*item
	for s.heap.Len() > 0 && !s.heap[0].due.After(now) {
		due = append(due, heap.Pop(&s.heap).(*item))
	}
	st.Due = len(due)
	m.Gauge("sched.due_depth").Set(int64(len(due)))

	// Defer hosts whose breaker is not ready and items beyond the
	// host's politeness budget; admit the rest in due order.
	var admitted []*item
	T := time.Duration(float64(time.Second) / s.cfg.hostRPS())
	for _, it := range due {
		if s.Breakers != nil && it.host != "" && !s.Breakers.For(it.host).Ready() {
			it.due = now.Add(s.cfg.breakerDefer())
			heap.Push(&s.heap, it)
			st.DeferredBreaker++
			m.Counter("sched.deferred.breaker").Inc()
			continue
		}
		b := s.buckets[it.bucketKey()]
		if b == nil {
			b = newBucket(s.cfg.hostRPS(), s.cfg.hostBurst())
			s.buckets[it.bucketKey()] = b
		}
		// Anything beyond the host's politeness budget is deferred to
		// its conforming time, each deferred item staggered one emission
		// interval after the previous so they do not pile up again.
		if wait, ok := b.take(now); ok {
			admitted = append(admitted, it)
		} else {
			it.due = now.Add(wait + time.Duration(b.deferrals)*T)
			b.deferrals++
			heap.Push(&s.heap, it)
			st.DeferredPoliteness++
			m.Counter("sched.deferred.politeness").Inc()
		}
	}
	for _, b := range s.buckets {
		b.deferrals = 0
	}
	s.mu.Unlock()

	polls := m.CounterVec("sched.polls", "outcome")
	var resm sync.Mutex
	unstarted := Drain(ctx, clock, s.cfg.workers(), 0, 0, admitted,
		func(it *item) string { return it.host },
		func(ctx context.Context, it *item) {
			out := s.Poll(ctx, it.url)
			s.reschedule(it, out, clock.Now())
			resm.Lock()
			st.Polled++
			st.Outcomes[out]++
			resm.Unlock()
			polls.With(out.String()).Inc()
		})
	st.Requeued = len(unstarted)

	s.mu.Lock()
	// Requeue unpolled items at their original due times, so they come
	// due immediately next tick.
	for _, it := range unstarted {
		if _, ok := s.items[it.url]; ok { // not removed mid-tick
			heap.Push(&s.heap, it)
		}
	}
	st.Queue = len(s.items)
	s.mu.Unlock()
	m.Gauge("sched.queue_len").Set(int64(st.Queue))
	return st
}

// reschedule updates the item's estimator from the outcome and pushes
// it back on the heap with its new due time.
func (s *Scheduler) reschedule(it *item, out Outcome, pollTime time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[it.url]; !ok {
		return // removed while being polled
	}
	it.lastPolled = pollTime
	it.lastOutcome = out
	it.polled = true

	lo := maxDur(s.cfg.minInterval(), it.floor)
	hi := maxDur(s.cfg.maxInterval(), lo)
	switch out {
	case Changed, Unchanged:
		it.rate = observe(it.rate, it.samples, out == Changed)
		it.samples++
		it.interval = intervalFor(it.rate, lo, hi)
	case Failed:
		// No change-rate information; the breaker handles dead hosts.
		// Keep the interval as is.
	case Skipped, Excluded:
		// Threshold not yet elapsed, canceled or robot-excluded: try
		// again one floor interval from now without learning anything.
		if it.floor > 0 {
			it.interval = maxDur(it.interval, it.floor)
		}
	}
	jit := time.Duration(0)
	if f := s.cfg.jitterFrac(); f > 0 {
		window := time.Duration(f * float64(it.interval))
		jit = Jitter(jitterKey(it.url, it.samples), s.cfg.Seed, window)
	}
	next := it.interval - jit
	if next < it.floor {
		next = it.floor
	}
	it.due = pollTime.Add(next)
	it.seq = s.seq
	s.seq++
	heap.Push(&s.heap, it)
	s.metrics().Histogram("sched.interval_seconds", IntervalBuckets).Observe(it.interval.Seconds())
}

// Step is one round of a Repeat loop over the scheduler: it runs a Tick
// and returns its stats (Due == 0: nothing was due, the round did no
// work) and how long to sleep before the next URL comes due — the idle
// wait when the schedule is empty, and a brief yield when deferred
// items are already due, so a wall-clock loop cannot spin.
func (s *Scheduler) Step(ctx context.Context) (TickStats, time.Duration) {
	st := s.Tick(ctx)
	next, ok := s.NextDue()
	if !ok {
		return st, s.cfg.idleWait()
	}
	if wait := next.Sub(s.clock().Now()); wait > 0 {
		return st, wait
	}
	return st, 10 * time.Millisecond
}

// Repeat is the one polling loop: it calls step, sleeps on clock for
// the wait step returns, and repeats until step reports more == false
// (Repeat returns nil) or ctx ends (Repeat returns ctx's error). The
// first step always runs, even under a done ctx, so a pass cut short
// still gets to write its partial results. On a simulated clock the
// sleep advances the clock, compressing simulated days into
// microseconds.
func Repeat(ctx context.Context, clock simclock.Clock, step func() (wait time.Duration, more bool)) error {
	for {
		wait, more := step()
		if !more {
			return nil
		}
		if err := simclock.Sleep(ctx, clock, wait); err != nil {
			return err
		}
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
