package tracker

import (
	"context"
	"testing"
	"time"

	"aide/internal/robots"
	"aide/internal/sched"
)

// TestObservedAgainstPreviousCheck: Result.Observed compares a check
// with the URL's previous check, while Status compares it with the
// user's last visit.
func TestObservedAgainstPreviousCheck(t *testing.T) {
	const url = "http://h/p"
	cases := []struct {
		name string
		cfg  string
		// setup builds the page and runs any earlier checks; the case
		// asserts on the check that follows.
		setup        func(r *rig)
		wantStatus   sched.Outcome
		wantObserved sched.Outcome
	}{
		{"first sight", "Default 0\n", func(r *rig) {
			r.web.Site("h").Page("/p").Set("v1")
			r.hist.Visit(url, r.clock.Now())
		}, Unchanged, Changed},
		{"same date", "Default 0\n", func(r *rig) {
			r.web.Site("h").Page("/p").Set("v1")
			r.hist.Visit(url, r.clock.Now())
			r.tr.CheckEntry(context.Background(), entry(url))
		}, Unchanged, Unchanged},
		{"new date", "Default 0\n", func(r *rig) {
			p := r.web.Site("h").Page("/p")
			p.Set("v1")
			r.tr.CheckEntry(context.Background(), entry(url))
			r.web.Advance(time.Hour)
			p.Set("v2")
		}, Changed, Changed},
		{"checksum first sight", "Default 0\n", func(r *rig) {
			p := r.web.Site("h").Page("/p")
			p.Set("result A")
			p.SetNoLastModified()
			r.hist.Visit(url, r.clock.Now())
		}, Unchanged, Changed},
		{"checksum changed", "Default 0\n", func(r *rig) {
			p := r.web.Site("h").Page("/p")
			p.Set("result A")
			p.SetNoLastModified()
			r.hist.Visit(url, r.clock.Now())
			r.tr.CheckEntry(context.Background(), entry(url))
			p.Set("result B")
		}, Changed, Changed},
		{"checksum unchanged", "Default 0\n", func(r *rig) {
			p := r.web.Site("h").Page("/p")
			p.Set("result A")
			p.SetNoLastModified()
			r.hist.Visit(url, r.clock.Now())
			r.tr.CheckEntry(context.Background(), entry(url))
		}, Unchanged, Unchanged},
		{"cached verdict", "Default 1d\n", func(r *rig) {
			p := r.web.Site("h").Page("/p")
			p.Set("v1")
			r.tr.CheckEntry(context.Background(), entry(url))
			r.web.Advance(time.Hour)
			p.Set("v2") // not seen: the verdict comes from the state cache
		}, Changed, NotChecked},
		{"robots", "Default 0\n", func(r *rig) {
			s := r.web.Site("h")
			s.SetRobots("User-agent: *\nDisallow: /\n")
			s.Page("/p").Set("v1")
			r.tr.Robots = robots.NewCache(func(ctx context.Context, u string) (int, string, error) {
				info, err := r.tr.Client.Get(ctx, u)
				return info.Status, info.Body, err
			}, r.clock)
		}, Excluded, Excluded},
		{"failure", "Default 0\n", func(r *rig) {
			s := r.web.Site("h")
			s.Page("/p").Set("v1")
			r.tr.CheckEntry(context.Background(), entry(url))
			s.SetDown(true)
		}, Failed, Failed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.cfg)
			tc.setup(r)
			res := r.tr.CheckEntry(context.Background(), entry(url))
			if res.Status != tc.wantStatus || res.Observed != tc.wantObserved {
				t.Errorf("status/observed = %s/%s, want %s/%s (%+v)",
					res.Status, res.Observed, tc.wantStatus, tc.wantObserved, res)
			}
		})
	}
}

// TestPollEntryChecksFresh: a scheduler's poll goes to the wire where
// CheckEntry would answer from a cache — the known-modified shortcut,
// a recent visit, a recent check — so every poll observes the page and
// a second unseen change replaces the first in the verdict.
func TestPollEntryChecksFresh(t *testing.T) {
	const url = "http://h/p"
	r := newRig(t, "Default 1d\n")
	p := r.web.Site("h").Page("/p")
	p.Set("v1")
	r.hist.Visit(url, r.clock.Now())
	r.web.Advance(time.Hour)
	p.Set("v2") // an unseen change
	first := r.tr.PollEntry(context.Background(), entry(url))
	r.web.Advance(time.Hour)
	p.Set("v3") // and another, within the threshold
	if res := r.tr.CheckEntry(context.Background(), entry(url)); res.Via != "state-cache" {
		t.Fatalf("CheckEntry via %s, want the state-cache shortcut", res.Via)
	}
	second := r.tr.PollEntry(context.Background(), entry(url))
	r.hist.Visit(url, r.clock.Now())
	third := r.tr.PollEntry(context.Background(), entry(url)) // just visited

	for i, c := range []struct {
		res                    Result
		wantStatus, wantObserv sched.Outcome
	}{
		{first, Changed, Changed},
		{second, Changed, Changed},
		{third, Unchanged, Unchanged},
	} {
		if c.res.Via != "HEAD" || c.res.Status != c.wantStatus || c.res.Observed != c.wantObserv {
			t.Errorf("poll %d: via/status/observed = %s/%s/%s, want HEAD/%s/%s",
				i+1, c.res.Via, c.res.Status, c.res.Observed, c.wantStatus, c.wantObserv)
		}
	}
	if !second.LastModified.Equal(p.Current().Time) || second.LastModified.Equal(first.LastModified) {
		t.Errorf("second poll's Last-Modified = %v, want the second change's %v", second.LastModified, p.Current().Time)
	}
	if h, g := r.web.TotalRequests(); h+g != 3 {
		t.Errorf("three polls and one cached check made %d requests, want 3", h+g)
	}
}
