package tracker

import (
	"context"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"aide/internal/hotlist"
	"aide/internal/webclient"
)

// Host names are case-insensitive: URLs that spell one host differently
// share its lane, so the host never sees two checks at once.
func TestMixedCaseHostSharesLane(t *testing.T) {
	r := newRig(t, "Default 0\n")
	var mu sync.Mutex
	inflight := map[string]int{}
	maxInflight := 0
	r.tr.Client.Transport = transportFunc(func(ctx context.Context, req *webclient.Request) (*webclient.Response, error) {
		u, err := url.Parse(req.URL)
		if err != nil {
			t.Errorf("bad request URL %q", req.URL)
			return nil, err
		}
		host := strings.ToLower(u.Host)
		mu.Lock()
		inflight[host]++
		maxInflight = max(maxInflight, inflight[host])
		mu.Unlock()
		time.Sleep(5 * time.Millisecond) // widen the overlap window
		mu.Lock()
		inflight[host]--
		mu.Unlock()
		return &webclient.Response{Status: 200, LastModified: time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)}, nil
	})
	var entries []hotlist.Entry
	for _, u := range []string{"http://Example.com/a", "http://example.com/b", "http://EXAMPLE.COM/c", "http://example.COM/d"} {
		entries = append(entries, entry(u))
	}
	r.tr.Opt.Concurrency = 4
	for _, res := range r.tr.Run(context.Background(), entries) {
		if res.Status != Changed {
			t.Fatalf("%s: %+v", res.Entry.URL, res)
		}
	}
	if maxInflight > 1 {
		t.Errorf("one host saw %d simultaneous checks, want at most 1", maxInflight)
	}
}
