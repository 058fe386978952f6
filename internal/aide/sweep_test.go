package aide

import (
	"context"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"aide/internal/obs"
	"aide/internal/simclock"
	"aide/internal/snapshot"
	"aide/internal/w3config"
	"aide/internal/webclient"
	"aide/internal/websim"
)

// sweepTransport wraps a transport with a per-request hook.
type sweepTransport func(ctx context.Context, req *webclient.Request) (*webclient.Response, error)

func (f sweepTransport) RoundTrip(ctx context.Context, req *webclient.Request) (*webclient.Response, error) {
	return f(ctx, req)
}

// shardedRig builds a 4-shard server over six hosts of six pages each,
// plus one recursive root, all registered by one user.
func shardedRig(t *testing.T, concurrency int) *rig {
	t.Helper()
	clock := simclock.New(time.Time{})
	web := websim.New(clock)
	client := webclient.New(web)
	fac, err := snapshot.NewSharded(t.TempDir(), 4, client, clock)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w3config.ParseString("Default 0\n")
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{web: web, clock: clock, fac: fac, srv: NewServer(fac, client, cfg, clock)}
	r.srv.Concurrency = concurrency
	for h := 0; h < 6; h++ {
		site := web.Site(fmt.Sprintf("h%d", h))
		for p := 0; p < 6; p++ {
			page := site.Page(fmt.Sprintf("/p%d", p))
			page.Set(fmt.Sprintf("<P>host %d page %d version one.</P>\n", h, p))
			r.srv.Register(userA, Registration{URL: page.URL()})
		}
	}
	web.Site("vlib").Page("/index").Set(`<UL><LI><A HREF="/a">A</A><LI><A HREF="/b">B</A></UL>`)
	web.Site("vlib").Page("/a").Set("<P>a one</P>")
	web.Site("vlib").Page("/b").Set("<P>b one</P>")
	r.srv.Register(userA, Registration{URL: "http://vlib/index", Recursive: true})
	return r
}

// sweepScript runs three sweeps with page edits in between and returns
// each sweep's stats.
func sweepScript(r *rig) []SweepStats {
	var out []SweepStats
	out = append(out, r.srv.TrackAll(context.Background()))
	r.web.Advance(24 * time.Hour)
	for h := 0; h < 6; h += 2 {
		r.web.Site(fmt.Sprintf("h%d", h)).Page("/p1").Set(fmt.Sprintf("<P>host %d page 1 version two.</P>\n", h))
	}
	r.web.Site("vlib").Page("/a").Set("<P>a two</P>")
	out = append(out, r.srv.TrackAll(context.Background()))
	r.web.Advance(24 * time.Hour)
	for p := 0; p < 6; p++ {
		r.web.Site("h3").Page(fmt.Sprintf("/p%d", p)).Set(fmt.Sprintf("<P>host 3 page %d version three.</P>\n", p))
	}
	out = append(out, r.srv.TrackAll(context.Background()))
	return out
}

// archiveDump renders every tracked URL's revisions and their text.
func archiveDump(t *testing.T, r *rig) string {
	t.Helper()
	var b strings.Builder
	for _, u := range r.srv.trackedURLs() {
		revs, _, err := r.fac.History("", u)
		if err != nil {
			t.Fatalf("history %s: %v", u, err)
		}
		for _, rev := range revs {
			text, err := r.fac.Checkout(u, rev.Num)
			if err != nil {
				t.Fatalf("checkout %s %s: %v", u, rev.Num, err)
			}
			fmt.Fprintf(&b, "%s %s %q\n", u, rev.Num, text)
		}
	}
	return b.String()
}

func TestConcurrentShardedSweepMatchesSerial(t *testing.T) {
	serial := shardedRig(t, 0)
	conc := shardedRig(t, 4)
	wantStats := sweepScript(serial)
	gotStats := sweepScript(conc)
	for i := range wantStats {
		if gotStats[i] != wantStats[i] {
			t.Errorf("sweep %d: concurrent %+v, serial %+v", i, gotStats[i], wantStats[i])
		}
	}
	if wantStats[0].NewVersions == 0 || wantStats[1].NewVersions == 0 {
		t.Fatalf("script archived nothing: %+v", wantStats)
	}
	if got, want := archiveDump(t, conc), archiveDump(t, serial); got != want {
		t.Errorf("archives differ:\n--- concurrent ---\n%s--- serial ---\n%s", got, want)
	}
}

func TestConcurrentSweepLanesAreSerial(t *testing.T) {
	r := shardedRig(t, 4)
	var mu sync.Mutex
	inflight := map[string]int{}
	maxLane, maxTotal, total := 0, 0, 0
	base := r.srv.Client.Transport
	r.srv.Client.Transport = sweepTransport(func(ctx context.Context, req *webclient.Request) (*webclient.Response, error) {
		u, err := url.Parse(req.URL)
		if err != nil {
			t.Errorf("bad request URL %q", req.URL)
			return base.RoundTrip(ctx, req)
		}
		lane := fmt.Sprintf("%d %s", r.fac.ShardOf(req.URL), strings.ToLower(u.Host))
		mu.Lock()
		inflight[lane]++
		total++
		maxLane = max(maxLane, inflight[lane])
		maxTotal = max(maxTotal, total)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond) // widen the overlap window
		resp, err := base.RoundTrip(ctx, req)
		mu.Lock()
		inflight[lane]--
		total--
		mu.Unlock()
		return resp, err
	})
	sweepScript(r)
	if maxLane > 1 {
		t.Errorf("a (shard, host) lane had %d checks in flight, want 1", maxLane)
	}
	if maxTotal < 2 {
		t.Errorf("sweep never ran two lanes at once (max in flight %d)", maxTotal)
	}
}

func TestCanceledSweepAccountsEveryURL(t *testing.T) {
	for _, conc := range []int{0, 4} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) {
			r := shardedRig(t, conc)
			// No recursive roots: discovery would grow Distinct mid-sweep.
			r.srv.mu.Lock()
			r.srv.urls["http://vlib/index"].recursive = false
			r.srv.mu.Unlock()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			requests := 0
			base := r.srv.Client.Transport
			r.srv.Client.Transport = sweepTransport(func(rctx context.Context, req *webclient.Request) (*webclient.Response, error) {
				mu.Lock()
				requests++
				if requests == 10 {
					cancel()
				}
				mu.Unlock()
				return base.RoundTrip(rctx, req)
			})
			st := r.srv.TrackAll(ctx)
			if st.Canceled == 0 {
				t.Fatalf("cancel mid-sweep left nothing canceled: %+v", st)
			}
			if got := st.Checked + st.Skipped + st.Canceled; got != st.Distinct {
				t.Errorf("checked %d + skipped %d + canceled %d = %d, want distinct %d",
					st.Checked, st.Skipped, st.Canceled, got, st.Distinct)
			}
		})
	}
}

func TestShardSweptCounterIsLabeled(t *testing.T) {
	r := shardedRig(t, 4)
	r.srv.Metrics = obs.NewRegistry()
	st := r.srv.TrackAll(context.Background())
	sum, series := int64(0), 0
	for name, v := range r.srv.Metrics.Snapshot().Counters {
		if strings.HasPrefix(name, `shard.swept{shard="`) {
			sum += v
			series++
		}
	}
	if sum != int64(st.Checked) || series < 2 {
		t.Errorf("shard.swept{shard} sums to %d over %d series, want %d checked over several shards",
			sum, series, st.Checked)
	}
}
