package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"path/filepath"
	"sort"
	"time"

	"aide/internal/snapshot"
	"aide/internal/websim"
)

// ingest is the write workload: one writer edits a page on the simulated
// web and asks snapshotd to /remember it for a named user whose hotlist
// holds the page (overlapping hotlists, the §8.3 shape); one reader
// diffs the pair the writer just created and asks for "what changed
// since I last saw it" on the live page.
type ingest struct {
	e *env

	web   *simWeb
	pages []*livePage
	users []*user
	data  string
	srv   *snapshotd
	c     *client
	rend  renders
	// writes holds the pair the newest /remember created until the
	// reader takes it.
	writes chan lastWrite

	userBytes int64
	warmFails []sample
}

const (
	ingestHosts    = 8
	ingestPerHost  = 50
	ingestUsers    = 8
	ingestHotlist  = 128
	ingestParagrap = 12
)

// livePage is a page on the simulated web together with the revisions
// the archive holds for it. Only the writer touches it during a window.
type livePage struct {
	page
	web  *websim.Page
	gen  func(step int) string
	step int
}

type user struct {
	name  string
	pages []*livePage
}

// lastWrite is the pair the most recent /remember created.
type lastWrite struct {
	url, r1, r2 string
}

func newIngest(e *env) workload { return &ingest{e: e, writes: make(chan lastWrite, 1)} }

func (in *ingest) setup(ctx context.Context) error {
	rng := rand.New(rand.NewSource(in.e.seed))
	var err error
	if in.web, err = newSimWeb(ingestHosts); err != nil {
		return err
	}
	start := time.Now().Add(-time.Hour).Truncate(time.Second)
	for h := 0; h < ingestHosts; h++ {
		for i := 0; i < ingestPerHost; i++ {
			wp := in.web.site(h).Page(fmt.Sprintf("/doc%02d.html", i))
			lp := &livePage{web: wp, gen: websim.EditGenerator(fmt.Sprintf("Host %d document %d", h, i), ingestParagrap, rng.Int63())}
			lp.url = wp.URL()
			wp.SetAt(lp.gen(0), start)
			in.pages = append(in.pages, lp)
		}
	}
	dir, err := in.e.dir("ingest")
	if err != nil {
		return err
	}
	in.data = filepath.Join(dir, "data")
	fac, err := snapshot.NewSharded(in.data, 1, nil, nil)
	if err != nil {
		return err
	}
	// Every user has already remembered each page on their hotlist once:
	// the archive holds revision 1.1 and every control file is full.
	for u := 0; u < ingestUsers; u++ {
		us := &user{name: fmt.Sprintf("reader%d@perfbench.example", u)}
		for _, k := range rng.Perm(len(in.pages))[:ingestHotlist] {
			lp := in.pages[k]
			body := lp.web.Current().Body
			res, err := fac.RememberContent(ctx, us.name, lp.url, body)
			if err != nil {
				return err
			}
			if res.Changed {
				lp.revs = append(lp.revs, newRev(1, start, body))
				in.userBytes += int64(len(body))
			}
			us.pages = append(us.pages, lp)
		}
		in.users = append(in.users, us)
	}
	in.e.mark("web and seed")
	in.c = newClient(2)
	if in.srv, err = startSnapshotd(in.e, in.data, in.c); err != nil {
		return err
	}
	in.e.mark("start")
	// Writes only: the reader would wait for writes a fixed count of
	// operations cannot promise it.
	noReads := make(chan struct{})
	close(noReads)
	in.warmFails = fixedLoop(ctx, 40, in.e.seed, in.workers(noReads))
	in.e.mark("warm-up")
	return nil
}

func (in *ingest) close() {
	in.srv.stop()
	if in.c != nil {
		in.c.close()
	}
	in.web.close()
}

// workers returns the writer and the reader. The reader follows the
// writer: for each write it diffs the new pair, then asks one user's
// "since I last saw" diff, then waits for the next write (or stop). Tying
// the reads to the writes keeps the read load per write fixed; a free
// running reader's share of the server swung the write latency ±15%.
func (in *ingest) workers(stop <-chan struct{}) []worker {
	writer := func(rng *rand.Rand) nextOp {
		return func() (string, bool, func() error) {
			us := in.users[rng.Intn(len(in.users))]
			lp := us.pages[rng.Intn(len(us.pages))]
			return "remember", true, func() error { return in.write(us, lp) }
		}
	}
	reader := func(rng *rand.Rand) nextOp {
		sinceSeen := false
		return func() (string, bool, func() error) {
			if sinceSeen {
				sinceSeen = false
				us := in.users[rng.Intn(len(in.users))]
				lp := us.pages[rng.Intn(len(us.pages))]
				return "diff-since-seen", false, func() error { return in.diffSinceSeen(us, lp) }
			}
			select {
			case l := <-in.writes:
				sinceSeen = true
				return "diff-latest", false, func() error { return in.diffLatest(l) }
			case <-stop:
				return "", false, nil
			}
		}
	}
	return []worker{writer, reader}
}

// write edits the page and remembers it for us; the archive must assign
// exactly the next revision.
func (in *ingest) write(us *user, lp *livePage) error {
	lp.step++
	body := lp.gen(lp.step)
	now := time.Now()
	lp.web.SetAt(body, now)
	want := fmt.Sprintf("1.%d", len(lp.revs)+1)
	got, err := in.c.ok200(in.srv.base + "/remember?user=" + url.QueryEscape(us.name) + "&url=" + url.QueryEscape(lp.url))
	if err != nil {
		return err
	}
	if !bytes.Contains(got, []byte(": saved as revision "+want+".")) {
		return fmt.Errorf("remember of %s: want new revision %s, got %.160s", lp.url, want, got)
	}
	prev := lp.revs[len(lp.revs)-1].num
	lp.revs = append(lp.revs, newRev(len(lp.revs)+1, now, body))
	in.userBytes += int64(len(body))
	select { // keep only the newest unread write; the writer is the only sender
	case <-in.writes:
	default:
	}
	in.writes <- lastWrite{url: lp.url, r1: prev, r2: want}
	return nil
}

func (in *ingest) diffLatest(l lastWrite) error {
	body, err := in.c.ok200(in.srv.base + "/diff?url=" + url.QueryEscape(l.url) + "&r1=" + l.r1 + "&r2=" + l.r2)
	if err != nil {
		return err
	}
	return in.rend.check(l.url, l.r1, l.r2, body)
}

// diffSinceSeen asks for the user's "what changed since I last saw it"
// against the live page; the page must come back as a diff of that URL.
func (in *ingest) diffSinceSeen(us *user, lp *livePage) error {
	body, err := in.c.ok200(in.srv.base + "/diff?user=" + url.QueryEscape(us.name) + "&url=" + url.QueryEscape(lp.url))
	if err != nil {
		return err
	}
	if bytes.Contains(body, []byte("<B>Error:</B>")) || !bytes.Contains(body, []byte(lp.url)) {
		return fmt.Errorf("diff since seen of %s: %.160s", lp.url, body)
	}
	return nil
}

func (in *ingest) run(ctx context.Context, d time.Duration) (*outcome, error) {
	o := &outcome{op: "one /remember of a just-edited page for a named user", opSpan: "snapshot.remember"}
	for _, s := range in.warmFails {
		o.add(s)
	}
	before, err := in.c.counters(in.srv.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(in.srv.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	window, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	samples, secs, slices := closedLoop(ctx, d, in.e.seed, in.workers(window.Done()))
	o.slices = slices
	self1 := selfCPU()
	cpu1, err := procCPU(in.srv.pid())
	if err != nil {
		return nil, err
	}
	after, err := in.c.counters(in.srv.base)
	if err != nil {
		return nil, err
	}
	if o.peakRSSMB, err = procPeakRSSMB(in.srv.pid()); err != nil {
		return nil, err
	}
	for _, s := range samples {
		o.add(s)
		if s.primary {
			o.writes++
		} else {
			o.reads++
		}
	}
	o.window = secs
	o.programCPU, o.clientCPU = cpu1-cpu0, self1-self0
	o.programOps = float64(len(samples))
	o.counters = delta(before, after)
	stored, err := dirBytes(in.data, ",v")
	if err != nil {
		return nil, err
	}
	o.storedPerUserByte = ratio(float64(stored), float64(in.userBytes))

	holders := map[*livePage]int{}
	for _, us := range in.users {
		for _, lp := range us.pages {
			holders[lp]++
		}
	}
	var depths, sizes []float64
	for lp := range holders {
		depths = append(depths, float64(len(lp.revs)))
		sizes = append(sizes, float64(len(lp.revs[len(lp.revs)-1].body)))
	}
	sort.Float64s(depths)
	sort.Float64s(sizes)
	o.charf("web: %d pages on %d loopback hosts; %d users x %d-URL hotlists cover %d pages, %.2f users per page",
		len(in.pages), ingestHosts, len(in.users), ingestHotlist, len(holders), float64(len(in.users)*ingestHotlist)/float64(len(holders)))
	o.charf("archive depth after the window min/p50/p90/max %.0f/%.0f/%.0f/%.0f; page size bytes p10/p50/p90 %.0f/%.0f/%.0f",
		depths[0], percentile(depths, 0.5), percentile(depths, 0.9), depths[len(depths)-1],
		percentile(sizes, 0.1), percentile(sizes, 0.5), percentile(sizes, 0.9))
	c := o.counters
	hits, misses := c["snapshot.diffcache.hits"], c["snapshot.diffcache.misses"]
	o.charf("per write: %.2f diff-cache invalidations, %.2f pre-warmed pairs; diff cache hit ratio %.4f (%.0f hits, %.0f misses)",
		ratio(c["snapshot.diffcache.invalidated"], o.writes), ratio(c["diffcache.prewarm.computed"], o.writes), ratio(hits, hits+misses), hits, misses)
	return o, nil
}

// replay stops the server and replays in-process: more writes continuing
// the seeded sequence (the workload's own operation), every layer on the
// written pages, and tracking checks of the live pages.
func (in *ingest) replay(ctx context.Context, o *outcome) (*layerTimes, error) {
	in.srv.stop()
	in.srv = nil
	fac, err := snapshot.NewSharded(in.data, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	tmp, err := in.e.dir("replay")
	if err != nil {
		return nil, err
	}
	r := newReplayer(fac, tmp)
	rng := rand.New(rand.NewSource(in.e.seed + 99))
	for k := 0; k < 60; k++ {
		us := in.users[rng.Intn(len(in.users))]
		lp := us.pages[rng.Intn(len(us.pages))]
		lp.step++
		body := lp.gen(lp.step)
		if err := r.write(ctx, us.name, lp.url, body); err != nil {
			return nil, err
		}
		lp.revs = append(lp.revs, newRev(len(lp.revs)+1, time.Now(), body))
	}
	var multi []*page
	var urls []string
	for _, lp := range in.pages {
		if len(lp.revs) > 1 {
			multi = append(multi, &lp.page)
		}
	}
	if len(multi) == 0 {
		return nil, fmt.Errorf("no page was written twice")
	}
	if err := r.cover(ctx, rng, multi, 40, in.users[0].name); err != nil {
		return nil, err
	}
	for _, lp := range in.pages[:60] {
		urls = append(urls, lp.url)
	}
	if err := r.web(ctx, urls); err != nil {
		return nil, err
	}
	return r.finish(), nil
}
