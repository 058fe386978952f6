// Package tracker implements w3newer, AIDE's modification tracker (§3).
//
// A run walks the user's hotlist and decides, per URL, whether the page
// has changed since the browser history says the user last saw it —
// while avoiding as many HTTP requests as possible:
//
//   - pages already known to be modified since the last visit (from the
//     tracker's own state cache or from the proxy-cache daemon) are
//     reported without any HTTP, unless that knowledge is stale;
//   - pages visited within their per-URL threshold (Table 1) are not
//     checked at all;
//   - pages checked within their threshold are answered from the cached
//     verdict;
//   - file: URLs are stat()ed on every run (cheap);
//   - URLs excluded by the robot exclusion protocol are not fetched, and
//     the exclusion is cached;
//   - pages without Last-Modified (CGI output) fall back to checksums.
//
// Error handling follows §3.1: errors are assumed transient and retried
// next run by default; a flag treats an erroring URL as checked so it is
// polled no more often than a healthy one; host-level failures can skip
// the host's remaining URLs for the run; inaccessible URLs appear in the
// report so the user can prune them.
package tracker

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aide/internal/breaker"
	"aide/internal/formreg"
	"aide/internal/fsatomic"
	"aide/internal/hotlist"
	"aide/internal/htmldoc"
	"aide/internal/obs"
	"aide/internal/robots"
	"aide/internal/sched"
	"aide/internal/simclock"
	"aide/internal/w3config"
	"aide/internal/webclient"
)

// The verdicts of a run, in report order. They are sched.Outcome
// values, so a report row, a sweep count and a scheduler poll speak one
// vocabulary; Label gives the words the report prints.
const (
	// Changed: modified since the user last saw it.
	Changed = sched.Changed
	// Unchanged: checked (or known) and already seen by the user.
	Unchanged = sched.Unchanged
	// NotChecked: skipped this run (threshold, host error, or "never").
	NotChecked = sched.Skipped
	// Excluded: robots.txt forbids automated retrieval.
	Excluded = sched.Excluded
	// Failed: the check errored; see Err.
	Failed = sched.Failed
)

// Result is one row of a run's outcome.
type Result struct {
	// Entry is the hotlist item.
	Entry hotlist.Entry
	// Status is the report's verdict: changed or not since the user's
	// last visit.
	Status sched.Outcome
	// Observed is what this check saw against the URL's previous check,
	// whatever the user has seen: Changed when the modification date or
	// checksum differs from the state held before (or nothing was held),
	// Unchanged when it matches, Skipped when the verdict came from a
	// cache with no fresh check, otherwise equal to Status. The change-rate
	// estimator learns from Observed.
	Observed sched.Outcome
	// LastModified is the page's modification time, when known.
	LastModified time.Time
	// LastVisited is the browser history's view, when known.
	LastVisited time.Time
	// Via names the information source: "state-cache", "proxy", "HEAD",
	// "GET+checksum", "stat", "threshold", "visited-recently",
	// "host-error", "never", "canceled".
	Via string
	// Err is the failure for Status Failed.
	Err error
	// ErrKind classifies Err.
	ErrKind webclient.ErrKind
	// ErrCount is how many consecutive runs have failed for this URL.
	ErrCount int
	// Stale marks a Failed result that still carries last-known-good
	// knowledge (LastModified and/or a stored checksum) from an earlier
	// successful check: the answer served under degradation is explicit
	// about being old rather than silently absent.
	Stale bool
	// Bulletin is the page's Smart-Bookmarks-style self-description
	// (§2.1), when the check happened to fetch the body and one was
	// embedded. Informational only: the paper's critique is that the
	// maintainer's "what's new" is not the reader's.
	Bulletin string
}

// State is the tracker's persistent per-URL memory across runs ("a
// cached modification date from previous runs of w3newer").
type State struct {
	URL           string    `json:"url"`
	LastModified  time.Time `json:"last_modified,omitzero"`
	Checksum      string    `json:"checksum,omitempty"`
	CheckedAt     time.Time `json:"checked_at,omitzero"`
	ErrCount      int       `json:"err_count,omitempty"`
	RobotExcluded bool      `json:"robot_excluded,omitempty"`
}

// ModOracle is the proxy-cache daemon interface (internal/proxycache).
type ModOracle interface {
	// ModInfo returns the cached modification date for url and when that
	// information was obtained.
	ModInfo(url string) (lastMod, cachedAt time.Time, ok bool)
}

// Options configure a Tracker.
type Options struct {
	// StaleAfter is how old cached modification knowledge may be before
	// HTTP is used anyway ("currently, the threshold is one week").
	StaleAfter time.Duration
	// TreatErrorsAsChecked makes an erroring URL count as checked, so it
	// is polled with the same frequency as an accessible one (§3.1's
	// second flag).
	TreatErrorsAsChecked bool
	// SkipHostAfterError skips a host's remaining URLs once one of its
	// URLs has hit a transport error this run.
	SkipHostAfterError bool
	// IgnoreRobots bypasses the robot exclusion protocol (§3.1's
	// "special flag set when the script is invoked").
	IgnoreRobots bool
	// TrustOracle treats the Proxy oracle as authoritative: any entry
	// it has for a URL answers the check outright, with no staleness or
	// threshold reasoning. This models §3.1's push-notification regime,
	// where the oracle is a notification relay kept current by content
	// providers rather than a best-effort cache.
	TrustOracle bool
	// Concurrency bounds the number of simultaneous checks. Values <= 1
	// keep the paper's serial, script-like behaviour. With concurrency,
	// SkipHostAfterError becomes best-effort: checks already in flight
	// when a host fails are not recalled.
	Concurrency int
	// PhaseJitter, when positive, delays each host's first check in a
	// concurrent run by a deterministic per-host offset in
	// [0, PhaseJitter), so a sweep does not fire every host's first
	// request at the same instant. The offset is sched.Jitter(host,
	// JitterSeed, PhaseJitter) with host = breaker.HostKey(url), the
	// same helper the continuous scheduler uses. Serial runs ignore it
	// (they are host-serial by construction).
	PhaseJitter time.Duration
	// JitterSeed keys PhaseJitter's deterministic offsets.
	JitterSeed int64
}

// Tracker is a w3newer instance bound to one user's inputs.
type Tracker struct {
	// Client performs the checks; required.
	Client *webclient.Client
	// Config holds the per-URL thresholds; required.
	Config *w3config.Config
	// History is the browser history; required.
	History *hotlist.History
	// Robots, when non-nil, enforces the robot exclusion protocol.
	Robots *robots.Cache
	// Proxy, when non-nil, is consulted for cached modification dates
	// before any HTTP request.
	Proxy ModOracle
	// Forms, when non-nil, resolves form:<id> pseudo-URLs to saved
	// POST invocations (§8.4).
	Forms *formreg.Registry
	// Clock provides time; wall clock when nil.
	Clock simclock.Clock
	// Metrics receives sweep counters and the sweep-duration histogram;
	// obs.Default when nil.
	Metrics *obs.Registry
	// Opt are the behavioural flags.
	Opt Options

	mu     sync.Mutex
	states map[string]*State
}

// metrics returns the tracker's registry (obs.Default when unset).
func (t *Tracker) metrics() *obs.Registry {
	if t.Metrics != nil {
		return t.Metrics
	}
	return obs.Default
}

// DefaultStaleAfter matches the paper's one-week staleness threshold.
const DefaultStaleAfter = 7 * 24 * time.Hour

// New returns a tracker with empty state.
func New(client *webclient.Client, cfg *w3config.Config, hist *hotlist.History, clock simclock.Clock) *Tracker {
	if clock == nil {
		clock = simclock.Wall{}
	}
	return &Tracker{
		Client:  client,
		Config:  cfg,
		History: hist,
		Clock:   clock,
		Opt:     Options{StaleAfter: DefaultStaleAfter},
		states:  make(map[string]*State),
	}
}

// stateLocked returns (creating if needed) the persistent state for
// url; t.mu must be held.
func (t *Tracker) stateLocked(url string) *State {
	s, ok := t.states[url]
	if !ok {
		s = &State{URL: url}
		t.states[url] = s
	}
	return s
}

// stateSnapshot returns a copy of the persistent state for url, creating
// it if needed. checkOne reasons over the copy; every mutation goes
// through the locked helpers below, so concurrent checks never touch a
// shared *State field directly.
func (t *Tracker) stateSnapshot(url string) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return *t.stateLocked(url)
}

// recordFailure bumps the consecutive-error count for url, optionally
// counting the failed attempt as a check, and returns the new count.
func (t *Tracker) recordFailure(url string, markChecked bool, now time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stateLocked(url)
	st.ErrCount++
	if markChecked {
		st.CheckedAt = now
	}
	return st.ErrCount
}

// markRobotExcluded caches a robots.txt exclusion verdict for url.
func (t *Tracker) markRobotExcluded(url string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stateLocked(url).RobotExcluded = true
}

// Run checks every hotlist entry and returns one result per entry, in
// hotlist order. Entries naming the same URL share one check: per-URL
// state is not designed for two simultaneous checks of the same page,
// and one check suffices. The checks run through sched.Drain with one
// lane per host: with Opt.Concurrency > 1, hosts are checked in
// parallel up to the bound while each host's URLs stay serial, so a
// misbehaving host is probed by at most one in-flight request and the
// skip-host and circuit-breaker knowledge gained on its first URL
// protects all its later ones.
//
// Cancellation: once ctx is done, no new checks are launched and the
// remaining entries are returned as NotChecked with Via "canceled" —
// the run always yields one result per entry, in order, so a deadline
// produces a partial report rather than none.
func (t *Tracker) Run(ctx context.Context, entries []hotlist.Entry) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	start := t.Clock.Now()
	ctx, span := obs.StartSpan(ctx, "tracker.sweep")
	span.SetAttr("entries", strconv.Itoa(len(entries)))
	badHosts := new(sync.Map) // hosts known bad this run
	results := make([]Result, len(entries))
	first := make(map[string]int, len(entries))
	var order []int // indexes of the first occurrence of each URL
	for i, e := range entries {
		if _, dup := first[e.URL]; !dup {
			first[e.URL] = i
			order = append(order, i)
		}
	}
	unstarted := sched.Drain(ctx, t.Clock, t.Opt.Concurrency, t.Opt.PhaseJitter, t.Opt.JitterSeed, order,
		func(i int) string { return breaker.HostKey(entries[i].URL) },
		func(ctx context.Context, i int) {
			r := t.checkOne(ctx, entries[i], badHosts, false)
			t.noteFailure(r, badHosts)
			results[i] = r
		})
	for _, i := range unstarted {
		results[i] = canceledResult(entries[i])
	}
	for i, e := range entries {
		if p := first[e.URL]; p != i {
			r := results[p]
			r.Entry = e
			results[i] = r
		}
	}
	t.recordSweep(span, results, start)
	return results
}

// recordSweep finishes a run's span and records the per-sweep metrics:
// the sweep-duration histogram (measured on the tracker's clock, so
// simclock-paced runs are deterministic) and one counter per outcome.
func (t *Tracker) recordSweep(span *obs.Span, results []Result, start time.Time) {
	m := t.metrics()
	dur := t.Clock.Now().Sub(start)
	m.Counter("tracker.sweeps").Inc()
	m.Histogram("tracker.sweep.duration", nil).ObserveDuration(dur)
	sum := Summary(results)
	checks := m.CounterVec("tracker.checks", "outcome")
	for o, n := range sum {
		checks.With(sched.Outcome(o).String()).Add(int64(n))
	}
	var degraded, skipped int
	for _, r := range results {
		if r.Status == Failed && r.Stale {
			degraded++
		}
		if r.Status == NotChecked && r.Via == "host-error" {
			skipped++
		}
	}
	m.Counter("tracker.checks.degraded").Add(int64(degraded))
	m.Counter("tracker.checks.skipped").Add(int64(skipped))
	span.SetAttr("changed", strconv.Itoa(sum[Changed]))
	span.SetAttr("failed", strconv.Itoa(sum[Failed]))
	span.End()
	obs.Logger().Info("tracker sweep",
		"entries", len(results), "changed", sum[Changed], "unchanged", sum[Unchanged],
		"notchecked", sum[NotChecked]+sum[Excluded], "failed", sum[Failed],
		"degraded", degraded, "skipped", skipped, "duration", dur)
}

// canceledResult marks one entry as unvisited because the run's context
// ended first.
func canceledResult(e hotlist.Entry) Result {
	return Result{Entry: e, Status: NotChecked, Observed: sched.Skipped, Via: "canceled"}
}

// noteFailure records a host-level failure for skip-host logic. A
// tripped circuit breaker lets nothing else through this run, so its
// host's remaining URLs are skipped regardless of SkipHostAfterError.
func (t *Tracker) noteFailure(r Result, badHosts *sync.Map) {
	host := breaker.HostKey(r.Entry.URL)
	if r.Status == Failed && host != "" &&
		(r.ErrKind == webclient.Tripped || t.Opt.SkipHostAfterError && r.ErrKind == webclient.Transient) {
		badHosts.Store(host, true)
	}
}

// CheckEntry applies the §3 decision procedure to a single hotlist
// entry, outside any sweep: same state cache, thresholds, robots
// handling, and proxy oracle as a sweep, but no host-error memory is
// carried across calls — host-level isolation is the caller's job (a
// scheduler consults the circuit breakers instead).
func (t *Tracker) CheckEntry(ctx context.Context, e hotlist.Entry) Result {
	return t.checkOne(ctx, e, new(sync.Map), false)
}

// PollEntry is CheckEntry for a scheduler's poll: it always makes a fresh
// check, never answering from the state cache, the proxy's cached dates
// or a recent visit. The schedule's floor already spaces a URL's polls
// by its Table 1 threshold, and a poll answered from a cache would
// observe nothing (Observed Skipped) — a page with an unseen change
// would go unpolled, and a second change unreported, for as long as the
// cache stays fresh. Never rules, cached robot exclusions and an
// authoritative oracle still apply.
func (t *Tracker) PollEntry(ctx context.Context, e hotlist.Entry) Result {
	return t.checkOne(ctx, e, new(sync.Map), true)
}

// checkOne applies the §3 decision procedure to one URL under ctx,
// traced as a "tracker.check" span nesting whatever robots.txt and
// fetch work the decision needs. fresh skips the cache shortcuts (see
// PollEntry).
func (t *Tracker) checkOne(ctx context.Context, e hotlist.Entry, badHosts *sync.Map, fresh bool) (r Result) {
	ctx, span := obs.StartSpan(ctx, "tracker.check")
	span.SetAttr("url", e.URL)
	defer func() {
		span.SetAttr("status", Label(r.Status))
		span.SetAttr("via", r.Via)
		span.End()
	}()
	now := t.Clock.Now()
	// Until a fresh check says otherwise, this check observed nothing.
	r = Result{Entry: e, Observed: sched.Skipped}
	st := t.stateSnapshot(e.URL)

	lastVisited, visited := t.History.LastVisited(e.URL)
	if e.LastVisit.After(lastVisited) {
		// Netscape keeps last-visit in the bookmark file itself; the
		// later of it and the history's visit counts.
		lastVisited, visited = e.LastVisit, true
	}
	r.LastVisited = lastVisited

	th := t.Config.ThresholdFor(e.URL)
	if th.Never {
		r.Status = NotChecked
		r.Via = "never"
		return r
	}

	// Cached robot exclusion short-circuits everything (§3.1: "that fact
	// is cached so the page is not accessed again").
	if st.RobotExcluded && !t.Opt.IgnoreRobots {
		r.Status, r.Observed = Excluded, Excluded
		r.Via = "state-cache"
		return r
	}

	// Host already known bad this run?
	if _, bad := badHosts.Load(breaker.HostKey(e.URL)); bad {
		r.Status = NotChecked
		r.Via = "host-error"
		return r
	}

	isFile := strings.HasPrefix(e.URL, "file:")
	// file: URLs are a cheap stat, so only web pages answer from caches.
	cached := !isFile && !fresh

	// An authoritative oracle (a push-notification relay) answers the
	// whole check: whatever modification date it holds is current.
	if !isFile && t.Opt.TrustOracle && t.Proxy != nil {
		if mod, _, ok := t.Proxy.ModInfo(e.URL); ok {
			r.Observed = t.recordSuccess(e.URL, mod, "", now)
			return t.verdict(r, mod, lastVisited, visited, "proxy")
		}
	}

	// Known-modified shortcut: if a cached date (our state or the proxy
	// daemon) says the page changed after the user's last visit, and
	// that knowledge is fresh, report without HTTP.
	if cached {
		if mod, via, ok := t.cachedModDate(st, now); ok {
			if visited && mod.After(lastVisited) {
				r.Status = Changed
				r.LastModified = mod
				r.Via = via
				return r
			}
		}
	}

	// Visited within the threshold: not checked (§3: "If the page was
	// visited within the threshold ... the page is not checked").
	if cached && visited && th.Every > 0 && now.Sub(lastVisited) < th.Every {
		r.Status = NotChecked
		r.Via = "visited-recently"
		return r
	}

	// Proxy information current with respect to the threshold counts as
	// a check.
	if cached && t.Proxy != nil {
		if mod, cachedAt, ok := t.Proxy.ModInfo(e.URL); ok && th.Every > 0 && now.Sub(cachedAt) < th.Every {
			r.Observed = t.recordSuccess(e.URL, mod, "", now)
			return t.verdict(r, mod, lastVisited, visited, "proxy")
		}
	}

	// Checked within the threshold: reuse the cached verdict rather than
	// issuing another HEAD (thresholds bound "the maximum frequency of
	// direct HEAD requests").
	if cached && !st.CheckedAt.IsZero() && th.Every > 0 && now.Sub(st.CheckedAt) < th.Every {
		if !st.LastModified.IsZero() {
			return t.verdict(r, st.LastModified, lastVisited, visited, "state-cache")
		}
		r.Status = NotChecked
		r.Via = "threshold"
		return r
	}

	// Robot exclusion protocol, before touching the page itself.
	if !isFile && t.Robots != nil && !t.Opt.IgnoreRobots && !t.Robots.Allowed(ctx, e.URL) {
		t.markRobotExcluded(e.URL)
		r.Status, r.Observed = Excluded, Excluded
		r.Via = "robots.txt"
		return r
	}

	// Direct check over the wire (a stat for file: URLs, a replayed
	// POST for saved forms).
	var info webclient.PageInfo
	var err error
	if t.Forms != nil && formreg.IsFormURL(e.URL) {
		info, err = t.Forms.Invoke(ctx, t.Client, e.URL)
	} else {
		info, err = t.Client.Check(ctx, e.URL)
	}
	if err != nil {
		if ctx.Err() != nil {
			// The run's context ended, not the page: report the entry as
			// canceled rather than failed, and don't charge it an error.
			return canceledResult(e)
		}
		return t.fail(r, st, err, webclient.Classify(0, err), now)
	}
	if kind := webclient.Classify(info.Status, nil); kind != webclient.OK {
		return t.fail(r, st, fmt.Errorf("HTTP status %d", info.Status), kind, now)
	}

	via := "HEAD"
	if isFile {
		via = "stat"
	}
	if info.HasBody {
		if b, ok := htmldoc.Bulletin(info.Body); ok {
			r.Bulletin = b
		}
	}
	mod := info.LastModified
	if !info.HasLastModified {
		// Checksum strategy: no Last-Modified available.
		via = "GET+checksum"
		r.Observed = t.recordSuccess(e.URL, time.Time{}, info.Checksum, now)
		r.Status = r.Observed
		if st.Checksum == "" && visited {
			// First checksum; assume the visit saw this content.
			r.Status = Unchanged
		}
		if r.Status == Changed {
			r.LastModified = now // best effort: changed by now
		}
		r.Via = via
		return r
	}
	r.Observed = t.recordSuccess(e.URL, mod, "", now)
	return t.verdict(r, mod, lastVisited, visited, via)
}

// fail fills a Failed result for a check that errored, charges the URL
// the failure, and serves the last-known-good answer from its state,
// marked Stale: a sweep under partial failure reports what it last knew
// about the page instead of reporting nothing.
func (t *Tracker) fail(r Result, st State, err error, kind webclient.ErrKind, now time.Time) Result {
	r.Status, r.Observed = Failed, Failed
	r.Via = "HEAD"
	r.Err = err
	r.ErrKind = kind
	r.ErrCount = t.recordFailure(r.Entry.URL, t.Opt.TreatErrorsAsChecked, now)
	if !st.LastModified.IsZero() || st.Checksum != "" {
		r.LastModified = st.LastModified
		r.Stale = true
	}
	return r
}

// verdict fills a result given a known modification date.
func (t *Tracker) verdict(r Result, mod, lastVisited time.Time, visited bool, via string) Result {
	r.LastModified = mod
	r.Via = via
	if !visited || mod.After(lastVisited) {
		r.Status = Changed
	} else {
		r.Status = Unchanged
	}
	return r
}

// cachedModDate returns a fresh cached modification date from the state
// cache or the proxy daemon, with its source label. st is checkOne's
// snapshot copy, so no lock is needed here.
func (t *Tracker) cachedModDate(st State, now time.Time) (time.Time, string, bool) {
	stale := t.Opt.StaleAfter
	if stale <= 0 {
		stale = DefaultStaleAfter
	}
	if !st.LastModified.IsZero() && !st.CheckedAt.IsZero() && now.Sub(st.CheckedAt) < stale {
		return st.LastModified, "state-cache", true
	}
	if t.Proxy != nil {
		if mod, cachedAt, ok := t.Proxy.ModInfo(st.URL); ok && now.Sub(cachedAt) < stale {
			return mod, "proxy", true
		}
	}
	return time.Time{}, "", false
}

// recordSuccess updates the per-URL state after a successful check and
// returns what the check observed: Unchanged when the checksum (or,
// without one, the modification date) matches the state it replaces,
// Changed otherwise, first sight included.
func (t *Tracker) recordSuccess(url string, mod time.Time, checksum string, now time.Time) sched.Outcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stateLocked(url)
	seen := Changed
	if checksum != "" && checksum == st.Checksum ||
		checksum == "" && !st.LastModified.IsZero() && mod.Equal(st.LastModified) {
		seen = Unchanged
	}
	if !mod.IsZero() {
		st.LastModified = mod
	}
	if checksum != "" {
		st.Checksum = checksum
	}
	st.CheckedAt = now
	st.ErrCount = 0
	return seen
}

// --- state persistence -------------------------------------------------------

// SaveState writes the per-URL state cache to path (JSON lines would be
// overkill; a single JSON array keeps it human-inspectable). The states
// are copied under the lock — marshaling shared pointers outside it
// would race with a concurrent run's updates.
func (t *Tracker) SaveState(path string) error {
	t.mu.Lock()
	states := make([]State, 0, len(t.states))
	for _, s := range t.states {
		states = append(states, *s)
	}
	t.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].URL < states[j].URL })
	data, err := json.MarshalIndent(states, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, data, 0o644)
}

// LoadState reads a state cache written by SaveState. A missing file is
// not an error: the first run starts cold.
func (t *Tracker) LoadState(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var states []*State
	if err := json.Unmarshal(data, &states); err != nil {
		return fmt.Errorf("tracker: corrupt state file %s: %v", path, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range states {
		t.states[s.URL] = s
	}
	return nil
}

// StateFor exposes a copy of the per-URL state, for tests and reports.
func (t *Tracker) StateFor(url string) (State, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.states[url]
	if !ok {
		return State{}, false
	}
	return *s, true
}
