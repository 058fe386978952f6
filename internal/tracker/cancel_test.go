package tracker

import (
	"context"
	"testing"
	"time"

	"aide/internal/hotlist"
)

// hungListRig builds a hotlist whose second entry points at a wedged
// host: checking it blocks until the run's context is done.
func hungListRig(t *testing.T) (*rig, []hotlist.Entry) {
	t.Helper()
	r := newRig(t, "Default 0\n")
	r.web.Site("a.example").Page("/p").Set("<P>a</P>")
	r.web.Site("stuck.example").Page("/p").Set("<P>s</P>")
	r.web.Site("stuck.example").SetHang(true)
	r.web.Site("b.example").Page("/p").Set("<P>b</P>")
	r.web.Site("c.example").Page("/p").Set("<P>c</P>")
	entries := []hotlist.Entry{
		entry("http://a.example/p"),
		entry("http://stuck.example/p"),
		entry("http://b.example/p"),
		entry("http://c.example/p"),
	}
	return r, entries
}

// A deadlined run against a hung host must come back by the deadline
// with ordered partial results: everything checked before the hang keeps
// its real verdict, the hung entry and everything after it are reported
// NotChecked via "canceled". This is the acceptance scenario for
// cancellation threading.
func TestTrackerRunCanceled(t *testing.T) {
	r, entries := hungListRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	results := r.tr.Run(ctx, entries)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run outlived its deadline by far: %v", elapsed)
	}

	if len(results) != len(entries) {
		t.Fatalf("results = %d, want %d (one per entry, even when canceled)", len(results), len(entries))
	}
	for i, res := range results {
		if res.Entry.URL != entries[i].URL {
			t.Errorf("result %d is %s, want %s (hotlist order)", i, res.Entry.URL, entries[i].URL)
		}
	}
	if results[0].Via == "canceled" || results[0].Status == NotChecked {
		t.Errorf("entry before the hang not checked: %+v", results[0])
	}
	for i, res := range results[1:] {
		if res.Status != NotChecked || res.Via != "canceled" {
			t.Errorf("result %d = {%v %q}, want {NotChecked canceled}", i+1, res.Status, res.Via)
		}
	}
}

// The concurrent scheduler must also respect the deadline: workers on
// healthy hosts finish, the hung check is reported canceled, and no
// goroutine is left behind (the -race run guards the bookkeeping).
func TestTrackerRunCanceledConcurrent(t *testing.T) {
	r, entries := hungListRig(t)
	r.tr.Opt.Concurrency = len(entries)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	results := r.tr.Run(ctx, entries)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run outlived its deadline by far: %v", elapsed)
	}
	if len(results) != len(entries) {
		t.Fatalf("results = %d, want %d", len(results), len(entries))
	}
	for i, res := range results {
		if res.Entry.URL != entries[i].URL {
			t.Errorf("result %d is %s, want %s (hotlist order)", i, res.Entry.URL, entries[i].URL)
		}
		hung := res.Entry.URL == "http://stuck.example/p"
		if hung && res.Via != "canceled" {
			t.Errorf("hung entry = {%v %q}, want canceled", res.Status, res.Via)
		}
		if !hung && res.Via == "canceled" {
			t.Errorf("healthy entry %s reported canceled", res.Entry.URL)
		}
	}
}

// A context canceled before the run starts checks nothing.
func TestTrackerRunPreCanceled(t *testing.T) {
	r, entries := hungListRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, res := range r.tr.Run(ctx, entries) {
		if res.Status != NotChecked || res.Via != "canceled" {
			t.Errorf("pre-canceled run checked %s: {%v %q}", res.Entry.URL, res.Status, res.Via)
		}
	}
	heads, gets := r.web.TotalRequests()
	if heads+gets != 0 {
		t.Errorf("pre-canceled run issued %d requests", heads+gets)
	}
}
