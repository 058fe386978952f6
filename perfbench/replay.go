package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"aide/internal/hotlist"
	"aide/internal/htmldiff"
	"aide/internal/htmldoc"
	"aide/internal/memento"
	"aide/internal/rcs"
	"aide/internal/robots"
	"aide/internal/snapshot"
	"aide/internal/textdiff"
	"aide/internal/tracker"
	"aide/internal/w3config"
	"aide/internal/webclient"
)

// replayer drives a sample of a workload in-process through each layer's
// public entry point, one span per call. Spans are recorded from the
// benchmark's side of each call; the layers themselves are untouched.
type replayer struct {
	lt   *layerTimes
	tr   *tracer
	fac  *snapshot.Facility
	res  memento.Resolver
	tmp  string
	idle []func() // idempotent calls for the tracing-overhead comparison
}

func newReplayer(fac *snapshot.Facility, tmp string) *replayer {
	tr := newTracer()
	return &replayer{lt: &layerTimes{tr: tr}, tr: tr, fac: fac, res: memento.Resolver{Base: "http://127.0.0.1:8080"}, tmp: tmp}
}

// counter counts bytes written to it.
type counter struct{ n int64 }

func (c *counter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func (r *replayer) archivePath(url string) string {
	var path string
	r.tr.do("store.archive_path", func() { path = r.fac.Store().ArchivePath(url) })
	return path
}

// diff is DiffRevsStream plus Render, named by its cache outcome.
func (r *replayer) diff(url, r1, r2 string) error {
	var err error
	id := r.tr.begin("snapshot.diff")
	ds, err := r.fac.DiffRevsStream(url, r1, r2)
	name := "snapshot.diff.miss"
	if err == nil {
		err = ds.Render(io.Discard)
		if ds.Cached {
			name = "snapshot.diff.hit"
		}
	}
	r.tr.end(id, name)
	return err
}

func (r *replayer) index(url string) ([]memento.Memento, error) {
	var ms []memento.Memento
	var err error
	r.tr.do("snapshot.revision_index", func() { ms, err = r.fac.RevisionIndex(url) })
	if err == nil && len(ms) == 0 {
		err = fmt.Errorf("no mementos for %s", url)
	}
	return ms, err
}

func (r *replayer) negotiate(ms []memento.Memento, t time.Time) int {
	var i int
	r.tr.do("memento.negotiate", func() { i = memento.Negotiate(ms, t) })
	return i
}

func (r *replayer) checkout(path, rev string) (string, error) {
	var text string
	var err error
	r.tr.do("rcs.checkout", func() { text, err = rcs.Open(path, nil).Checkout(rev) })
	return text, err
}

// op replays one read operation under a root span named prefix+ep:
// "op." for the workload's own mix (the in-process twin of the client's
// operation), "cover." for layer coverage beyond it.
func (r *replayer) op(prefix, ep string, p *page, rng *rand.Rand, latest bool) error {
	id := r.tr.begin(prefix + ep)
	defer r.tr.end(id, "")
	switch ep {
	case "diff":
		i, j := len(p.revs)-2, len(p.revs)-1
		if !latest {
			i, j = randPair(rng, len(p.revs))
		}
		r.archivePath(p.url)
		return r.diff(p.url, p.revs[i].num, p.revs[j].num)
	case "memento-diff":
		t1, t2 := randInstant(rng, p), randInstant(rng, p)
		ms, err := r.index(p.url)
		if err != nil {
			return err
		}
		fi, ti := r.negotiate(ms, t1), r.negotiate(ms, t2)
		if fi > ti {
			fi, ti = ti, fi
		}
		return r.diff(p.url, ms[fi].Rev, ms[ti].Rev)
	case "co":
		_, err := r.checkout(r.archivePath(p.url), p.revs[rng.Intn(len(p.revs))].num)
		return err
	case "history":
		var err error
		r.tr.do("snapshot.history", func() { _, _, err = r.fac.History("", p.url) })
		return err
	case "timegate":
		t := randInstant(rng, p)
		ms, err := r.index(p.url)
		if err != nil {
			return err
		}
		i := r.negotiate(ms, t)
		var links string
		r.tr.do("memento.links", func() { links = memento.MementoLinks(r.res, p.url, ms, i) })
		r.lt.linksBytes = append(r.lt.linksBytes, float64(len(links)))
		_, err = r.checkout(r.archivePath(p.url), ms[i].Rev)
		return err
	default: // timemap
		ms, err := r.index(p.url)
		if err != nil {
			return err
		}
		var c counter
		r.tr.do("memento.timemap", func() { err = memento.WriteTimeMap(&c, r.res, p.url, ms, 1, memento.DefaultPageSize) })
		return err
	}
}

// decompose replays what a diff miss does inside the facility, layer by
// layer, on the same pair: both checkouts, the tokenizer alone on each
// page, the alignment (which tokenizes again) and the render. It also
// times the rcs date scan RevisionIndex is built on.
func (r *replayer) decompose(p *page, i, j int) error {
	id := r.tr.begin("decompose.diff")
	defer r.tr.end(id, "")
	path := r.archivePath(p.url)
	old, err := r.checkout(path, p.revs[i].num)
	if err != nil {
		return err
	}
	cur, err := r.checkout(path, p.revs[j].num)
	if err != nil {
		return err
	}
	for _, doc := range []string{old, cur} {
		var toks []htmldoc.Token
		r.tr.do("htmldoc.tokenize", func() { toks = htmldoc.Tokenize(doc) })
		r.lt.tokens = append(r.lt.tokens, float64(len(toks)))
	}
	var prep *htmldiff.Prepared
	opt := r.fac.DiffOptions
	opt.Title = fmt.Sprintf("%s (%s vs %s)", p.url, p.revs[i].num, p.revs[j].num)
	r.tr.do("htmldiff.prepare", func() { prep = htmldiff.Prepare(old, cur, opt) })
	var c counter
	r.tr.do("htmldiff.render", func() { err = prep.RenderTo(&c) })
	r.lt.renderBytes = append(r.lt.renderBytes, float64(c.n))
	r.tr.do("rcs.dates", func() { _, err = rcs.Open(path, nil).Dates() })
	r.idle = append(r.idle, func() {
		d := r.tr.begin("decompose.diff")
		r.checkout(path, p.revs[i].num)
		r.tr.do("htmldoc.tokenize", func() { htmldoc.Tokenize(cur) })
		r.tr.do("htmldiff.prepare", func() { htmldiff.Prepare(old, cur, opt) })
		r.tr.end(d, "")
	})
	return err
}

// missThenHit renders a pair the facility has not cached, then again:
// the first call is a miss and the second a hit, whatever the workload's
// own mix produced.
func (r *replayer) missThenHit(url, r1, r2 string) error {
	if err := r.diff(url, r1, r2); err != nil {
		return err
	}
	return r.diff(url, r1, r2)
}

// write replays one check-in: first the rcs check-in and the ed script
// alone on a copy of the archive, then the whole RememberContent on the
// archive itself, so remember minus check-in is the facility's own cost
// (control file, checksum ledger, cache invalidation).
func (r *replayer) write(ctx context.Context, user, url, body string) error {
	path := r.fac.Store().ArchivePath(url)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cp := fmt.Sprintf("%s/copy-%d,v", r.tmp, len(r.lt.checkin))
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		return err
	}
	defer os.Remove(cp)
	arch := rcs.Open(cp, nil)
	head, err := arch.Head() // parse once, as the facility's own read of the head does
	if err != nil {
		return err
	}
	prev, err := arch.Checkout(head)
	if err != nil {
		return err
	}
	id := r.tr.begin("rcs.checkin")
	_, changed, err := arch.Checkin(body, user, "checked in via AIDE snapshot")
	r.tr.end(id, "")
	if err != nil {
		return err
	}
	if !changed {
		return fmt.Errorf("replayed write of %s changed nothing", url)
	}
	s := r.tr.spans[id-1]
	r.lt.checkin = append(r.lt.checkin, float64(s.End-s.Start)/1e3)
	r.lt.checkinBytes = append(r.lt.checkinBytes, float64(arch.Size()))
	r.tr.do("textdiff.edscript", func() { textdiff.EdScript(textdiff.Lines(body), textdiff.Lines(prev)) })

	id = r.tr.begin("snapshot.remember")
	_, err = r.fac.RememberContent(ctx, user, url, body)
	r.tr.end(id, "")
	s = r.tr.spans[id-1]
	r.lt.remember = append(r.lt.remember, float64(s.End-s.Start)/1e3)
	return err
}

// web replays §3 tracking checks over urls, which must be served: one
// tracker.CheckEntry each (robots.txt consulted, HEAD or GET+checksum),
// then a plain webclient GET each.
func (r *replayer) web(ctx context.Context, urls []string) error {
	cfg, err := w3config.ParseString("Default 0\n")
	if err != nil {
		return err
	}
	client := webclient.New(&webclient.HTTPTransport{})
	client.Timeout = 10 * time.Second
	tr := tracker.New(client, cfg, hotlist.NewHistory(), nil)
	tr.Robots = robots.NewCache(func(ctx context.Context, url string) (int, string, error) {
		info, err := client.Get(ctx, url)
		return info.Status, info.Body, err
	}, nil)
	for _, u := range urls {
		var res tracker.Result
		r.tr.do("tracker.check", func() { res = tr.CheckEntry(ctx, hotlist.Entry{URL: u, Title: u}) })
		if res.Status == tracker.Failed {
			return fmt.Errorf("replayed check of %s failed: %v", u, res.Err)
		}
	}
	for _, u := range urls {
		var info webclient.PageInfo
		r.tr.do("webclient.get", func() { info, err = client.Get(ctx, u) })
		if err != nil {
			return err
		}
		if info.Status != 200 {
			return fmt.Errorf("replayed GET of %s: status %d", u, info.Status)
		}
		u := u
		r.idle = append(r.idle, func() { r.tr.do("webclient.get", func() { client.Get(ctx, u) }) })
	}
	return nil
}

// serveLatest puts the latest body of each page on a loopback simWeb
// (four hosts, one with a robots.txt and every third page without
// Last-Modified) and returns the served URLs.
func serveLatest(pages []*page) (*simWeb, []string, error) {
	sw, err := newSimWeb(4)
	if err != nil {
		return nil, nil, err
	}
	sw.site(0).SetRobots("User-agent: *\nDisallow: /private/\n")
	var urls []string
	for i, p := range pages {
		pg := sw.site(i % 4).Page(fmt.Sprintf("/page%d.html", i))
		pg.SetAt(p.revs[len(p.revs)-1].body, p.revs[len(p.revs)-1].at)
		if i%3 == 0 {
			pg.SetNoLastModified()
		}
		urls = append(urls, pg.URL())
	}
	return sw, urls, nil
}

// edited returns body with one more sentence, a new revision to check in.
func edited(body string, rng *rand.Rand) string {
	if i := strings.LastIndex(body, "</BODY>"); i >= 0 {
		return body[:i] + "<P>" + sentence(rng) + "</P>\n" + body[i:]
	}
	return body + "<P>" + sentence(rng) + "</P>\n"
}

// samplePages draws n pages (with repeats) from pages.
func samplePages(rng *rand.Rand, pages []*page, n int) []*page {
	out := make([]*page, n)
	for i := range out {
		out[i] = pages[rng.Intn(len(pages))]
	}
	return out
}

// cover makes sure every layer the facility reaches is measured on this
// workload's pages, whatever its own mix: each read endpoint on n sampled
// pages, the layers inside a diff miss, a forced miss then hit, and a
// check-in of an edited body by user. pages need at least two revisions.
func (r *replayer) cover(ctx context.Context, rng *rand.Rand, pages []*page, n int, user string) error {
	for _, p := range samplePages(rng, pages, n) {
		for _, ep := range []string{"co", "history", "timegate", "timemap", "memento-diff"} {
			if err := r.op("cover.", ep, p, rng, false); err != nil {
				return fmt.Errorf("replaying %s on %s: %w", ep, p.url, err)
			}
		}
		i, j := randPair(rng, len(p.revs))
		if err := r.decompose(p, i, j); err != nil {
			return err
		}
		if err := r.missThenHit(p.url, p.revs[i].num, p.revs[j].num); err != nil {
			return err
		}
	}
	written := map[string]bool{}
	for _, p := range samplePages(rng, pages, n) {
		if written[p.url] {
			continue
		}
		written[p.url] = true
		if err := r.write(ctx, user, p.url, edited(p.revs[len(p.revs)-1].body, rng)); err != nil {
			return err
		}
	}
	return nil
}

// finish runs the tracing-overhead comparison over the idempotent calls
// the replay collected.
func (r *replayer) finish() *layerTimes {
	r.lt.measureOverhead(r.idle)
	return r.lt
}
