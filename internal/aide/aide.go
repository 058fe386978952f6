// Package aide integrates the three tools — w3newer, snapshot, and
// HtmlDiff — into the AT&T Internet Difference Engine (§6), and
// implements the paper's server-side extensions:
//
//   - §7/§8.3 server-side URL tracking: every URL registered by any user
//     is checked once per sweep regardless of how many users want it;
//     changed pages are archived automatically, and each user's report
//     is computed against the versions that user has seen.
//   - §8.2 fixed pages: a community page set that is archived on every
//     change, with a generated "What's New" page linking to HtmlDiff.
//   - §8.3 recursive tracking: a registered page can be tracked
//     hierarchically — its same-host links are followed one hop and
//     tracked too (Virtual Library pages, collections of related pages).
package aide

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"aide/internal/breaker"
	"aide/internal/formreg"
	"aide/internal/htmldoc"
	"aide/internal/obs"
	"aide/internal/robots"
	"aide/internal/sched"
	"aide/internal/simclock"
	"aide/internal/snapshot"
	"aide/internal/w3config"
	"aide/internal/webclient"
)

// Registration is one user's interest in a URL.
type Registration struct {
	// URL is the tracked location.
	URL string
	// Title is the descriptive text for reports.
	Title string
	// Recursive asks the server to also track the page's same-host
	// links, one hop deep (§8.3).
	Recursive bool
}

// urlState is the server's per-URL tracking memory.
type urlState struct {
	lastChecked time.Time
	lastMod     time.Time
	checksum    string
	errCount    int
	lastErr     error
	// derivedFrom is set for URLs discovered by recursive tracking.
	derivedFrom string
	// title is the best-known descriptive text.
	title string
	// recursive marks roots whose links are followed.
	recursive bool
	// fixed marks members of the community fixed-page set (§8.2).
	fixed bool
	// lastNewRev is the archive revision created by the most recent
	// change, with its detection time.
	lastNewRev  string
	lastNewTime time.Time
}

// SweepStats summarises one TrackAll pass.
type SweepStats struct {
	// Distinct is the number of distinct URLs considered.
	Distinct int
	// Checked is how many were actually polled this sweep.
	Checked int
	// Skipped is how many the thresholds suppressed.
	Skipped int
	// NewVersions is how many changed pages were auto-archived.
	NewVersions int
	// Errors is how many checks failed.
	Errors int
	// Degraded is how many of those failures still had last-known-good
	// state (a modification date or checksum from an earlier sweep) to
	// fall back on: the URL is stale, not lost.
	Degraded int
	// Discovered is how many new URLs recursive tracking added.
	Discovered int
	// Canceled is how many URLs were left unchecked because the sweep's
	// context ended first.
	Canceled int
}

// merge folds another sweep's counts into s (Distinct is set once by
// the caller, not merged).
func (s *SweepStats) merge(o SweepStats) {
	s.Checked += o.Checked
	s.Skipped += o.Skipped
	s.NewVersions += o.NewVersions
	s.Errors += o.Errors
	s.Degraded += o.Degraded
	s.Discovered += o.Discovered
	s.Canceled += o.Canceled
}

// Server is the AIDE server: registrations, the shared tracking state,
// and the snapshot facility.
type Server struct {
	// Facility stores the versions.
	Facility *snapshot.Facility
	// Client performs the checks and fetches.
	Client *webclient.Client
	// Config holds the polling thresholds.
	Config *w3config.Config
	// Robots, when non-nil, enforces the exclusion protocol for the
	// server's robot sweeps.
	Robots *robots.Cache
	// Forms, when non-nil, resolves form:<id> pseudo-URLs so saved POST
	// services can be tracked server-side (§8.4).
	Forms *formreg.Registry
	// Clock provides time.
	Clock simclock.Clock
	// Metrics receives the server's sweep counters and histograms, and
	// is what the /debug/metrics endpoint serves; obs.Default when nil.
	Metrics *obs.Registry
	// RequestTimeout, when positive, bounds the work one HTTP request may
	// trigger: handlers derive their context from the request's and add
	// this deadline.
	RequestTimeout time.Duration
	// Concurrency bounds the number of hosts a sweep polls at once per
	// shard of the Facility's store. Values <= 1 keep the serial sweep.
	// Within a shard, URLs on the same host are always checked one at a
	// time, whatever the bound.
	Concurrency int
	// MaxSimultaneous, when positive, bounds in-flight HTTP requests on
	// the server's handler: excess requests are shed with 503 and a
	// Retry-After hint instead of queueing without bound.
	MaxSimultaneous int
	// PhaseJitter, when positive, delays each (shard, host) lane's first
	// check in a concurrent sweep by a deterministic per-lane offset in
	// [0, PhaseJitter), so sweep starts do not hammer every host at the
	// same instant. Serial sweeps ignore it.
	PhaseJitter time.Duration
	// JitterSeed keys the PhaseJitter offsets.
	JitterSeed int64

	mu    sync.Mutex
	users map[string][]Registration
	urls  map[string]*urlState

	// schedSt holds the attached continuous scheduler, if any; see
	// sched.go.
	schedSt schedState
}

// metrics returns the server's registry (obs.Default when unset).
func (s *Server) metrics() *obs.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return obs.Default
}

// NewServer wires an AIDE server.
func NewServer(fac *snapshot.Facility, client *webclient.Client, cfg *w3config.Config, clock simclock.Clock) *Server {
	if clock == nil {
		clock = simclock.Wall{}
	}
	return &Server{
		Facility: fac,
		Client:   client,
		Config:   cfg,
		Clock:    clock,
		users:    make(map[string][]Registration),
		urls:     make(map[string]*urlState),
	}
}

// Register records a user's interest in a URL. Registering the same URL
// again updates the title and recursive flag.
func (s *Server) Register(user string, reg Registration) {
	s.mu.Lock()
	regs := s.users[user]
	found := false
	for i := range regs {
		if regs[i].URL == reg.URL {
			regs[i] = reg
			found = true
			break
		}
	}
	if !found {
		s.users[user] = append(regs, reg)
	}
	st := s.stateLocked(reg.URL)
	if reg.Title != "" {
		st.title = reg.Title
	}
	st.recursive = st.recursive || reg.Recursive
	s.mu.Unlock()
	s.schedAdd(reg.URL)
}

// AddFixed adds a URL to the community fixed-page set: it is archived
// automatically as soon as a change is detected (§8.2).
func (s *Server) AddFixed(url, title string) {
	s.mu.Lock()
	st := s.stateLocked(url)
	st.fixed = true
	if title != "" {
		st.title = title
	}
	s.mu.Unlock()
	s.schedAdd(url)
}

// Registrations returns a copy of a user's registrations, sorted by URL.
func (s *Server) Registrations(user string) []Registration {
	s.mu.Lock()
	defer s.mu.Unlock()
	regs := append([]Registration(nil), s.users[user]...)
	sort.Slice(regs, func(i, j int) bool { return regs[i].URL < regs[j].URL })
	return regs
}

// stateLocked returns (creating) the state for url; s.mu must be held.
func (s *Server) stateLocked(url string) *urlState {
	st, ok := s.urls[url]
	if !ok {
		st = &urlState{}
		s.urls[url] = st
	}
	return st
}

// trackedURLs snapshots the distinct URL set.
func (s *Server) trackedURLs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	urls := make([]string, 0, len(s.urls))
	for u := range s.urls {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	return urls
}

// TrackAll performs one server-side sweep: each distinct URL is checked
// at most once (§8.3's economy of scale), changed pages are archived
// automatically, and recursive roots contribute their links to the
// tracked set. The checks run through sched.Drain, one lane per
// (shard, host): with Concurrency > 1, up to Concurrency lanes per
// shard run at once, so sweep throughput scales with the store's
// partitioning while one slow or dead host delays only its own lanes.
// A done ctx stops the sweep between URLs; the remainder is counted in
// Canceled.
func (s *Server) TrackAll(ctx context.Context) SweepStats {
	var stats SweepStats
	start := s.Clock.Now()
	ctx, span := obs.StartSpan(ctx, "aide.sweep")
	urls := s.trackedURLs()
	span.SetAttr("urls", strconv.Itoa(len(urls)))
	shards := 1
	if s.Facility != nil {
		shards = s.Facility.Shards()
	}
	width := s.Concurrency
	if width > 1 {
		width *= shards
	}
	swept := s.metrics().CounterVec("shard.swept", "shard")
	var mu sync.Mutex
	unstarted := sched.Drain(ctx, s.Clock, width, s.PhaseJitter, s.JitterSeed, urls, s.laneKey,
		func(ctx context.Context, url string) {
			var one SweepStats
			s.trackOne(ctx, url, &one)
			if shards > 1 {
				swept.With(strconv.Itoa(s.Facility.ShardOf(url))).Add(int64(one.Checked))
			}
			mu.Lock()
			stats.merge(one)
			mu.Unlock()
		})
	stats.Canceled += len(unstarted)
	stats.Distinct = len(s.trackedURLs())
	s.recordSweep(span, stats, start)
	return stats
}

// laneKey is a URL's sweep lane: its shard and host, so a host is
// probed by at most one request per shard. Hostless pseudo-URLs yield
// "", a lane of their own.
func (s *Server) laneKey(url string) string {
	host := breaker.HostKey(url)
	if host == "" || s.Facility == nil {
		return host
	}
	return strconv.Itoa(s.Facility.ShardOf(url)) + " " + host
}

// recordSweep finishes a sweep's span and records its metrics. The
// histogram shares the tracker's name — both are the paper's "sweep" —
// so dashboards see one series whichever side did the polling.
func (s *Server) recordSweep(span *obs.Span, stats SweepStats, start time.Time) {
	m := s.metrics()
	dur := s.Clock.Now().Sub(start)
	m.Counter("aide.sweeps").Inc()
	m.Histogram("tracker.sweep.duration", nil).ObserveDuration(dur)
	m.Counter("aide.sweep.checked").Add(int64(stats.Checked))
	m.Counter("aide.sweep.skipped").Add(int64(stats.Skipped))
	m.Counter("aide.sweep.new_versions").Add(int64(stats.NewVersions))
	m.Counter("aide.sweep.errors").Add(int64(stats.Errors))
	m.Counter("aide.sweep.degraded").Add(int64(stats.Degraded))
	m.Counter("aide.sweep.discovered").Add(int64(stats.Discovered))
	m.Counter("aide.sweep.canceled").Add(int64(stats.Canceled))
	span.SetAttr("checked", strconv.Itoa(stats.Checked))
	span.SetAttr("new_versions", strconv.Itoa(stats.NewVersions))
	span.End()
	obs.Logger().Info("aide sweep",
		"distinct", stats.Distinct, "checked", stats.Checked, "skipped", stats.Skipped,
		"new_versions", stats.NewVersions, "errors", stats.Errors, "degraded", stats.Degraded,
		"discovered", stats.Discovered, "canceled", stats.Canceled, "duration", dur)
}

// trackOne checks a single URL under ctx and updates its state and the
// archive, traced as an "aide.check" span nesting the robots, fetch,
// and check-in spans below it.
func (s *Server) trackOne(ctx context.Context, url string, stats *SweepStats) {
	ctx, span := obs.StartSpan(ctx, "aide.check")
	span.SetAttr("url", url)
	defer span.End()
	now := s.Clock.Now()
	s.mu.Lock()
	st := s.stateLocked(url)
	th := s.Config.ThresholdFor(url)
	skip := th.Never || (th.Every > 0 && !st.lastChecked.IsZero() && now.Sub(st.lastChecked) < th.Every)
	recursive := st.recursive
	s.mu.Unlock()
	if skip {
		stats.Skipped++
		return
	}
	if s.Robots != nil && !s.Robots.Allowed(ctx, url) {
		stats.Skipped++
		s.mu.Lock()
		st.lastChecked = now
		s.mu.Unlock()
		return
	}

	stats.Checked++
	var info webclient.PageInfo
	var err error
	if s.Forms != nil && formreg.IsFormURL(url) {
		info, err = s.Forms.Invoke(ctx, s.Client, url)
	} else {
		info, err = s.Client.Check(ctx, url)
	}
	if err == nil {
		if kind := webclient.Classify(info.Status, nil); kind != webclient.OK {
			err = fmt.Errorf("HTTP status %d (%s)", info.Status, kind)
		}
	}
	s.mu.Lock()
	st.lastChecked = now
	if err != nil {
		st.errCount++
		st.lastErr = err
		degraded := !st.lastMod.IsZero() || st.checksum != ""
		s.mu.Unlock()
		stats.Errors++
		if degraded {
			// Earlier sweeps left a modification date or checksum: the
			// URL's answer is stale rather than gone.
			stats.Degraded++
		}
		return
	}
	st.errCount = 0
	st.lastErr = nil

	changed := false
	switch {
	case info.HasLastModified:
		changed = st.lastMod.IsZero() || info.LastModified.After(st.lastMod)
		st.lastMod = info.LastModified
	default:
		changed = st.checksum == "" || st.checksum != info.Checksum
		st.checksum = info.Checksum
	}
	s.mu.Unlock()

	if !changed {
		return
	}
	body := info.Body
	if !info.HasBody {
		full, err := s.Client.Get(ctx, url)
		if err != nil {
			stats.Errors++
			s.mu.Lock()
			st.errCount++
			st.lastErr = err
			s.mu.Unlock()
			return
		}
		body = full.Body
	}
	res, err := s.Facility.RememberContent(ctx, "", url, body)
	if err != nil {
		stats.Errors++
		return
	}
	if res.Changed {
		stats.NewVersions++
		s.mu.Lock()
		st.lastNewRev = res.Rev
		st.lastNewTime = now
		s.mu.Unlock()
	}
	if recursive {
		stats.Discovered += s.discoverLinks(url, body)
	}
}

// discoverLinks adds a recursive root's same-host links to the tracked
// set (one hop: discovered pages are not themselves recursive).
func (s *Server) discoverLinks(rootURL, body string) int {
	var newLinks []string
	seen := map[string]bool{}
	for _, href := range htmldoc.Links(body) {
		link := htmldoc.ResolveLink(rootURL, href)
		if link == "" || link == rootURL || seen[link] || !htmldoc.SameHost(rootURL, link) {
			continue
		}
		seen[link] = true
		s.mu.Lock()
		if _, exists := s.urls[link]; !exists {
			st := s.stateLocked(link)
			st.derivedFrom = rootURL
			st.title = "(via " + rootURL + ")"
			newLinks = append(newLinks, link)
		}
		s.mu.Unlock()
	}
	// Hand discoveries to the scheduler outside s.mu.
	for _, link := range newLinks {
		s.schedAdd(link)
	}
	return len(newLinks)
}

// UserRow is one line of a user's server-side report.
type UserRow struct {
	// Registration echoes the user's entry.
	Registration
	// HeadRev is the newest archived revision ("" when never archived).
	HeadRev string
	// HeadDate is the newest revision's check-in time.
	HeadDate time.Time
	// SeenRev is the newest revision this user has seen ("" if none).
	SeenRev string
	// Changed reports whether the archive is ahead of the user.
	Changed bool
	// Err carries the URL's most recent check failure.
	Err error
}

// ReportFor computes a user's view of the shared tracking state: which
// of their pages have versions they have not seen (§8.3: "a user could
// request a list of all pages that have been saved away, and get an
// indication of which pages have changed since they were saved by the
// user").
func (s *Server) ReportFor(user string) []UserRow {
	regs := s.Registrations(user)
	rows := make([]UserRow, 0, len(regs))
	for _, reg := range regs {
		row := UserRow{Registration: reg}
		s.mu.Lock()
		if st, ok := s.urls[reg.URL]; ok && st.lastErr != nil {
			row.Err = st.lastErr
		}
		s.mu.Unlock()
		revs, seen, err := s.Facility.History(user, reg.URL)
		if err == nil && len(revs) > 0 {
			row.HeadRev = revs[0].Num
			row.HeadDate = revs[0].Date
			for _, r := range revs {
				if seen[r.Num] {
					row.SeenRev = r.Num
					break // newest-first: first hit is newest seen
				}
			}
			row.Changed = !seen[row.HeadRev]
		}
		rows = append(rows, row)
	}
	return rows
}

// MarkSeen records that the user has now seen the head revision of url
// (the user followed the Diff link and caught up). Checking the head
// text in again is a no-op for the archive but updates the user's
// control file.
func (s *Server) MarkSeen(ctx context.Context, user, url string) error {
	text, err := s.Facility.Checkout(url, "")
	if err != nil {
		return err
	}
	_, err = s.Facility.RememberContent(ctx, user, url, text)
	return err
}

// FixedChange is one entry of the community "What's New" page.
type FixedChange struct {
	URL     string
	Title   string
	Rev     string
	Changed time.Time
}

// FixedChanges lists the fixed-page set's most recent changes, newest
// first — the data behind the §8.2 "specialized What's New page".
func (s *Server) FixedChanges() []FixedChange {
	s.mu.Lock()
	var out []FixedChange
	for url, st := range s.urls {
		if !st.fixed || st.lastNewRev == "" {
			continue
		}
		title := st.title
		if title == "" {
			title = url
		}
		out = append(out, FixedChange{URL: url, Title: title, Rev: st.lastNewRev, Changed: st.lastNewTime})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Changed.Equal(out[j].Changed) {
			return out[i].Changed.After(out[j].Changed)
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// TrackedCount returns the number of distinct URLs under management and
// how many were discovered recursively.
func (s *Server) TrackedCount() (total, derived int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.urls {
		if st.derivedFrom != "" {
			derived++
		}
	}
	return len(s.urls), derived
}
