package tracker

import (
	"context"
	"sync"
	"testing"
	"time"

	"aide/internal/breaker"
	"aide/internal/hotlist"
	"aide/internal/webclient"
)

func TestFailedCheckServesLastKnownGoodAsStale(t *testing.T) {
	r := newRig(t, "Default 0\n")
	p := r.web.Site("h").Page("/p")
	p.Set("v1")
	mod := r.clock.Now()

	// A clean first run populates the state cache.
	res := one(t, r.tr, "http://h/p")
	if res.Status != Changed || res.Stale {
		t.Fatalf("healthy run: %+v", res)
	}

	// The host dies past the staleness window, so the cached-mod-date
	// shortcut does not answer and the check hits the wire.
	r.web.Advance(8 * 24 * time.Hour)
	r.web.Site("h").SetDown(true)
	res = one(t, r.tr, "http://h/p")
	if res.Status != Failed {
		t.Fatalf("dead host: %+v", res)
	}
	if !res.Stale {
		t.Error("failed check with cached state not marked Stale")
	}
	if !res.LastModified.Equal(mod) {
		t.Errorf("stale LastModified = %v, want the cached %v", res.LastModified, mod)
	}
}

func TestFailedCheckWithNoHistoryIsNotStale(t *testing.T) {
	r := newRig(t, "Default 0\n")
	r.web.Site("h").Page("/p").Set("v1")
	r.web.Site("h").SetDown(true)
	res := one(t, r.tr, "http://h/p")
	if res.Status != Failed || res.Stale {
		t.Fatalf("first-ever check of a dead host: %+v (Stale must be false)", res)
	}
}

func TestTrippedBreakerSkipsHostRemainder(t *testing.T) {
	r := newRig(t, "Default 0\n")
	site := r.web.Site("h")
	for _, p := range []string{"/a", "/b", "/c"} {
		site.Page(p).Set("content")
	}
	site.SetDown(true)
	// Threshold 1: the first failure opens the breaker; with serial
	// order, /b and /c must be skipped as host-error without a fetch.
	r.tr.Client.Breakers = breaker.NewSet(breaker.Config{FailureThreshold: 1, Cooldown: time.Hour})
	r.tr.Client.Breakers.Clock = r.clock

	entries := []hotlist.Entry{entry("http://h/a"), entry("http://h/b"), entry("http://h/c")}
	results := r.tr.Run(context.Background(), entries)
	if results[0].Status != Failed {
		t.Fatalf("first URL: %+v", results[0])
	}
	// The second URL meets the now-open breaker: it fails fast with the
	// distinct Tripped kind (no wire attempt) and marks the host bad...
	if results[1].Status != Failed || results[1].ErrKind != webclient.Tripped {
		t.Errorf("second URL = %v kind %v, want Failed/Tripped", results[1].Status, results[1].ErrKind)
	}
	// ...so the third is skipped outright.
	if results[2].Status != NotChecked || results[2].Via != "host-error" {
		t.Errorf("third URL = %v via %q, want NotChecked via host-error",
			results[2].Status, results[2].Via)
	}
	heads, gets := site.Requests()
	if heads+gets != 1 {
		t.Errorf("requests to tripped host = %d, want 1", heads+gets)
	}
}

func TestPerHostSerialization(t *testing.T) {
	r := newRig(t, "Default 0\n")
	// Track concurrent in-flight checks per host via a hanging-ish
	// transport wrapper: count entries inside the transport per host.
	var mu sync.Mutex
	inflight := map[string]int{}
	maxInflight := map[string]int{}
	base := r.tr.Client.Transport
	r.tr.Client.Transport = transportFunc(func(ctx context.Context, req *webclient.Request) (*webclient.Response, error) {
		host := breaker.HostKey(req.URL)
		mu.Lock()
		inflight[host]++
		if inflight[host] > maxInflight[host] {
			maxInflight[host] = inflight[host]
		}
		mu.Unlock()
		resp, err := base.RoundTrip(ctx, req)
		mu.Lock()
		inflight[host]--
		mu.Unlock()
		return resp, err
	})

	var entries []hotlist.Entry
	for _, h := range []string{"a", "b", "c"} {
		site := r.web.Site(h)
		for _, p := range []string{"/1", "/2", "/3", "/4"} {
			site.Page(p).Set("content")
			entries = append(entries, entry("http://"+h+p))
		}
	}
	r.tr.Opt.Concurrency = 8
	results := r.tr.Run(context.Background(), entries)
	for _, res := range results {
		if res.Status != Changed {
			t.Fatalf("%s: %+v", res.Entry.URL, res)
		}
	}
	for h, n := range maxInflight {
		if n > 1 {
			t.Errorf("host %s saw %d simultaneous requests, want at most 1", h, n)
		}
	}
}

// transportFunc adapts a function to webclient.Transport.
type transportFunc func(ctx context.Context, req *webclient.Request) (*webclient.Response, error)

func (f transportFunc) RoundTrip(ctx context.Context, req *webclient.Request) (*webclient.Response, error) {
	return f(ctx, req)
}

func TestHostSummaryCounts(t *testing.T) {
	results := []Result{
		{Entry: entry("http://a/1"), Status: Changed},
		{Entry: entry("http://a/2"), Status: Unchanged},
		{Entry: entry("http://b/1"), Status: Failed, Stale: true},
		{Entry: entry("http://b/2"), Status: NotChecked, Via: "host-error"},
		{Entry: entry("http://b/3"), Status: Failed},
		{Entry: entry("form:abc"), Status: Changed},
	}
	sum := HostSummary(results)
	want := []HostCounts{
		{Host: "", OK: 1},
		{Host: "a", OK: 2},
		{Host: "b", Degraded: 1, Skipped: 1, Failed: 1},
	}
	if len(sum) != len(want) {
		t.Fatalf("hosts = %d, want %d: %+v", len(sum), len(want), sum)
	}
	for i := range want {
		if sum[i] != want[i] {
			t.Errorf("host %q = %+v, want %+v", want[i].Host, sum[i], want[i])
		}
	}
}
