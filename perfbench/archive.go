package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"aide/internal/httpdate"
	"aide/internal/memento"
	"aide/internal/snapshot"
)

// archiveWorkload is a read-only workload against snapshotd over a
// pre-seeded archive: view-hot and diff-cold differ in corpus, page
// popularity, which revision pairs /diff compares, and endpoint mix.
type archiveWorkload struct {
	e      *env
	corpus func(rng *rand.Rand) []*page
	mix    []weighted
	zipf   bool // popularity: Zipf over a seeded page order (else uniform)
	latest bool // /diff compares the newest pair (else a random pair)
	warm   func(a *archiveWorkload, ctx context.Context) []sample

	pages     []*page
	multi     []*page // pages with at least two revisions
	mementos  map[string][]memento.Memento
	data      string
	userBytes int64
	srv       *snapshotd
	c         *client
	rend      renders
	warmFails []sample

	diffBytes, diffCount atomic.Int64 // rendered diff sizes seen in the window
}

type weighted struct {
	ep     string
	weight int
}

func newViewHot(e *env) workload {
	return &archiveWorkload{
		e:      e,
		corpus: section7Corpus,
		mix: []weighted{
			{"diff", 3}, {"co", 2}, {"history", 2}, {"timegate", 2}, {"timemap", 1},
		},
		zipf:   true,
		latest: true,
		warm: func(a *archiveWorkload, ctx context.Context) []sample {
			// Every page's newest pair once (what pre-warm would have
			// rendered at check-in) and every history once.
			var fails []sample
			for _, p := range a.pages {
				if err := a.history(p); err != nil {
					fails = append(fails, sample{ep: "history", err: "warm-up: " + err.Error()})
				}
				if n := len(p.revs); n > 1 {
					if err := a.diff(p, n-2, n-1); err != nil {
						fails = append(fails, sample{ep: "diff", err: "warm-up: " + err.Error()})
					}
				}
			}
			return append(fails, fixedLoop(ctx, 200, a.e.seed, a.workers())...)
		},
	}
}

func newDiffCold(e *env) workload {
	return &archiveWorkload{
		e: e,
		corpus: func(rng *rand.Rand) []*page {
			return driftCorpus(rng, 100, 30)
		},
		mix: []weighted{{"diff", 3}, {"memento-diff", 1}},
		warm: func(a *archiveWorkload, ctx context.Context) []sample {
			return fixedLoop(ctx, 150, a.e.seed, a.workers())
		},
	}
}

func (a *archiveWorkload) setup(ctx context.Context) error {
	rng := rand.New(rand.NewSource(a.e.seed))
	a.pages = a.corpus(rng)
	a.mementos = map[string][]memento.Memento{}
	for _, p := range a.pages {
		if len(p.revs) > 1 {
			a.multi = append(a.multi, p)
		}
		ms := make([]memento.Memento, len(p.revs))
		for i, r := range p.revs {
			ms[i] = memento.Memento{Rev: r.num, Time: r.at}
		}
		a.mementos[p.url] = ms
	}
	dir, err := a.e.dir("archive")
	if err != nil {
		return err
	}
	a.data = filepath.Join(dir, "data")
	a.e.mark("generate")
	if a.userBytes, err = seedArchive(ctx, a.data, a.pages); err != nil {
		return err
	}
	a.e.mark("seed")
	a.c = newClient(1)
	if a.srv, err = startSnapshotd(a.e, a.data, a.c); err != nil {
		return err
	}
	a.e.mark("start")
	a.warmFails = a.warm(a, ctx)
	a.e.mark("warm-up")
	return nil
}

func (a *archiveWorkload) close() {
	a.srv.stop()
	if a.c != nil {
		a.c.close()
	}
}

// workers returns the one closed-loop client. One viewer leaves the
// program a core of its own: with two, the generator and the server
// together saturated the two-CPU machine and throughput swung ±6% from
// run to run with the hypervisor's steal, against ±1.5% with one.
func (a *archiveWorkload) workers() []worker {
	w := func(rng *rand.Rand) nextOp {
		pick, pickMulti := a.chooser(rng, a.pages), a.chooser(rng, a.multi)
		return func() (string, bool, func() error) {
			switch ep := a.drawEndpoint(rng); ep {
			case "diff":
				p := pickMulti()
				i, j := len(p.revs)-2, len(p.revs)-1
				if !a.latest {
					i, j = randPair(rng, len(p.revs))
				}
				return ep, true, func() error { return a.diff(p, i, j) }
			case "memento-diff":
				p := pickMulti()
				t1, t2 := randInstant(rng, p), randInstant(rng, p)
				return ep, true, func() error { return a.mementoDiff(p, t1, t2) }
			case "co":
				p := pick()
				i := rng.Intn(len(p.revs))
				return ep, true, func() error { return a.checkout(p, i) }
			case "history":
				p := pick()
				return ep, true, func() error { return a.history(p) }
			case "timegate":
				p := pick()
				t := randInstant(rng, p)
				return ep, true, func() error { return a.timegate(p, t) }
			default: // timemap
				p := pick()
				return ep, true, func() error { return a.timemap(p) }
			}
		}
	}
	return []worker{w}
}

// drawEndpoint picks the next endpoint by the mix's weights.
func (a *archiveWorkload) drawEndpoint(rng *rand.Rand) string {
	total := 0
	for _, m := range a.mix {
		total += m.weight
	}
	n := rng.Intn(total)
	for _, m := range a.mix {
		if n < m.weight {
			return m.ep
		}
		n -= m.weight
	}
	return a.mix[len(a.mix)-1].ep
}

// chooser draws pages uniformly, or, when the workload models popular
// pages, with Zipf-like weight (rank+1)^-0.8 over pages ranked by how
// often they change (the churners first; ties in a seeded order), so
// the hot set has the same make-up whatever the seed.
func (a *archiveWorkload) chooser(rng *rand.Rand, pages []*page) func() *page {
	if !a.zipf {
		return func() *page { return pages[rng.Intn(len(pages))] }
	}
	ranked := append([]*page(nil), pages...)
	tie := rand.New(rand.NewSource(a.e.seed + 17))
	tie.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	sort.SliceStable(ranked, func(i, j int) bool { return len(ranked[i].revs) > len(ranked[j].revs) })
	cum := make([]float64, len(ranked))
	total := 0.0
	for k := range ranked {
		total += math.Pow(float64(k+1), -0.8)
		cum[k] = total
	}
	return func() *page {
		return ranked[min(sort.SearchFloat64s(cum, rng.Float64()*total), len(ranked)-1)]
	}
}

// randPair draws two distinct revision indexes, older first.
func randPair(rng *rand.Rand, n int) (int, int) {
	i, j := rng.Intn(n), rng.Intn(n-1)
	if j >= i {
		j++
	} else {
		i, j = j, i
	}
	return i, j
}

// randInstant draws a whole-second instant within the page's archived
// range, where negotiation has real choices to make.
func randInstant(rng *rand.Rand, p *page) time.Time {
	first, last := p.revs[0].at, p.revs[len(p.revs)-1].at
	span := int64(last.Sub(first) / time.Second)
	return first.Add(time.Duration(rng.Int63n(span+1)) * time.Second)
}

func (a *archiveWorkload) q(p *page) string { return url.QueryEscape(p.url) }

func (a *archiveWorkload) diff(p *page, i, j int) error {
	r1, r2 := p.revs[i].num, p.revs[j].num
	body, err := a.c.ok200(a.srv.base + "/diff?url=" + a.q(p) + "&r1=" + r1 + "&r2=" + r2)
	if err != nil {
		return err
	}
	a.diffBytes.Add(int64(len(body)))
	a.diffCount.Add(1)
	return a.rend.check(p.url, r1, r2, body)
}

// mementoDiff requests the diff between the mementos nearest two
// instants; the benchmark predicts which pair that is and requires the
// same bytes /diff renders for it.
func (a *archiveWorkload) mementoDiff(p *page, t1, t2 time.Time) error {
	ms := a.mementos[p.url]
	fi, ti := memento.Negotiate(ms, t1), memento.Negotiate(ms, t2)
	if fi > ti {
		fi, ti = ti, fi
	}
	status, hdr, body, err := a.c.get(a.c.follow, a.srv.base+"/memento/diff?url="+a.q(p)+
		"&from="+memento.FormatTimestamp(t1)+"&to="+memento.FormatTimestamp(t2))
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("status %d: %.120s", status, body)
	}
	if got, want := hdr.Get("Memento-Datetime"), httpdate.Format(ms[ti].Time); got != want {
		return fmt.Errorf("memento diff of %s: Memento-Datetime %q, want %q", p.url, got, want)
	}
	a.diffBytes.Add(int64(len(body)))
	a.diffCount.Add(1)
	return a.rend.check(p.url, ms[fi].Rev, ms[ti].Rev, body)
}

func (a *archiveWorkload) checkout(p *page, i int) error {
	body, err := a.c.ok200(a.srv.base + "/co?url=" + a.q(p) + "&rev=" + p.revs[i].num)
	if err != nil {
		return err
	}
	return checkServed(body, p.revs[i], p.url)
}

func (a *archiveWorkload) history(p *page) error {
	body, err := a.c.ok200(a.srv.base + "/history?url=" + a.q(p))
	if err != nil {
		return err
	}
	s := string(body)
	if n := strings.Count(s, "<LI>"); n != len(p.revs) {
		return fmt.Errorf("history of %s lists %d revisions, want %d", p.url, n, len(p.revs))
	}
	if !strings.Contains(s, "<LI>"+p.revs[len(p.revs)-1].num+" ") {
		return fmt.Errorf("history of %s does not list head %s", p.url, p.revs[len(p.revs)-1].num)
	}
	return nil
}

// timegate negotiates to instant t, checks the 302 names the memento
// memento.Negotiate predicts over the seeded dates, then fetches it and
// checks the archived bytes. Both requests count as one operation.
func (a *archiveWorkload) timegate(p *page, t time.Time) error {
	status, hdr, body, err := a.c.get(a.c.direct, a.srv.base+"/timegate?url="+a.q(p), "Accept-Datetime", httpdate.Format(t))
	if err != nil {
		return err
	}
	if status != 302 {
		return fmt.Errorf("timegate status %d: %.120s", status, body)
	}
	i := memento.Negotiate(a.mementos[p.url], t)
	want := a.srv.base + "/memento/" + memento.FormatTimestamp(p.revs[i].at) + "/" + p.url
	loc := hdr.Get("Location")
	if loc != want {
		return fmt.Errorf("timegate for %s at %s: Location %q, want %q", p.url, t.Format(time.RFC3339), loc, want)
	}
	status, hdr, body, err = a.c.get(a.c.follow, loc)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("memento status %d: %.120s", status, body)
	}
	if got, want := hdr.Get("Memento-Datetime"), httpdate.Format(p.revs[i].at); got != want {
		return fmt.Errorf("memento of %s: Memento-Datetime %q, want %q", p.url, got, want)
	}
	return checkServed(body, p.revs[i], p.url)
}

func (a *archiveWorkload) timemap(p *page) error {
	body, err := a.c.ok200(a.srv.base + "/timemap/link?url=" + a.q(p))
	if err != nil {
		return err
	}
	s := string(body)
	if n := strings.Count(s, `memento";datetime=`); n != len(p.revs) {
		return fmt.Errorf("timemap of %s lists %d mementos, want %d", p.url, n, len(p.revs))
	}
	for _, r := range []rev{p.revs[0], p.revs[len(p.revs)-1]} {
		if !strings.Contains(s, "<"+a.srv.base+"/memento/"+memento.FormatTimestamp(r.at)+"/"+p.url+">") {
			return fmt.Errorf("timemap of %s lacks the memento of %s", p.url, r.num)
		}
	}
	return nil
}

func (a *archiveWorkload) run(ctx context.Context, d time.Duration) (*outcome, error) {
	o := &outcome{op: "one read request; a timegate op also fetches the memento it redirects to"}
	for _, s := range a.warmFails {
		o.add(s)
	}
	before, err := a.c.counters(a.srv.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(a.srv.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	a.diffBytes.Store(0)
	a.diffCount.Store(0)
	samples, window, slices := closedLoop(ctx, d, a.e.seed, a.workers())
	o.slices = slices
	self1 := selfCPU()
	cpu1, err := procCPU(a.srv.pid())
	if err != nil {
		return nil, err
	}
	after, err := a.c.counters(a.srv.base)
	if err != nil {
		return nil, err
	}
	if o.peakRSSMB, err = procPeakRSSMB(a.srv.pid()); err != nil {
		return nil, err
	}
	for _, s := range samples {
		o.add(s)
	}
	o.window = window
	o.programCPU, o.clientCPU = cpu1-cpu0, self1-self0
	o.programOps = float64(len(samples))
	o.reads = float64(len(samples))
	o.counters = delta(before, after)
	stored, err := dirBytes(a.data, ",v")
	if err != nil {
		return nil, err
	}
	o.storedPerUserByte = ratio(float64(stored), float64(a.userBytes))
	a.characterise(o, stored)
	return o, nil
}

func (a *archiveWorkload) characterise(o *outcome, stored int64) {
	var depths, sizes []float64
	pairs := 0.0
	for _, p := range a.pages {
		n := len(p.revs)
		depths = append(depths, float64(n))
		sizes = append(sizes, float64(len(p.revs[n-1].body)))
		pairs += float64(n*(n-1)) / 2
	}
	sort.Float64s(depths)
	sort.Float64s(sizes)
	o.charf("corpus: %d pages (%d with history), %d revisions; archive depth min/p50/p90/max %.0f/%.0f/%.0f/%.0f",
		len(a.pages), len(a.multi), int(sum(depths)), depths[0], percentile(depths, 0.5), percentile(depths, 0.9), depths[len(depths)-1])
	o.charf("page size bytes p10/p50/p90/max %.0f/%.0f/%.0f/%.0f; ,v archive %.2f MiB for %.2f MiB of check-in bodies",
		percentile(sizes, 0.1), percentile(sizes, 0.5), percentile(sizes, 0.9), sizes[len(sizes)-1],
		float64(stored)/(1<<20), float64(a.userBytes)/(1<<20))
	if n := a.diffCount.Load(); n > 0 {
		mean := float64(a.diffBytes.Load()) / float64(n)
		space := pairs
		if a.latest {
			space = float64(len(a.multi))
		}
		o.charf("diff pair space: %.0f pairs x %.0f B mean render = %.1f MiB against the %d MiB diff-cache budget (%.1fx)",
			space, mean, space*mean/(1<<20), snapshot.DefaultDiffCacheMax>>20, space*mean/float64(snapshot.DefaultDiffCacheMax))
	}
	hits, misses := o.counters["snapshot.diffcache.hits"], o.counters["snapshot.diffcache.misses"]
	o.charf("diff cache in window: %.0f hits, %.0f misses, hit ratio %.4f; %d distinct pairs verified",
		hits, misses, ratio(hits, hits+misses), a.rend.len())
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// replay stops the server and replays a sample of the workload in-process
// over the same archive: the workload's own mix (diff-cache warmed as the
// server's was), the layers inside a diff miss, forced miss/hit pairs,
// check-ins of edited pages, and tracking checks of the pages served on
// loopback.
func (a *archiveWorkload) replay(ctx context.Context, o *outcome) (*layerTimes, error) {
	a.srv.stop()
	a.srv = nil
	fac, err := snapshot.NewSharded(a.data, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	tmp, err := a.e.dir("replay")
	if err != nil {
		return nil, err
	}
	r := newReplayer(fac, tmp)
	rng := rand.New(rand.NewSource(a.e.seed + 99))
	if a.latest {
		r.tr.on = false
		for _, p := range a.multi {
			n := len(p.revs)
			if err := r.diff(p.url, p.revs[n-2].num, p.revs[n-1].num); err != nil {
				return nil, err
			}
		}
		r.tr.on = true
	}
	pick, pickMulti := a.chooser(rng, a.pages), a.chooser(rng, a.multi)
	for k := 0; k < 400; k++ {
		ep := a.drawEndpoint(rng)
		p := pick()
		if ep == "diff" || ep == "memento-diff" {
			p = pickMulti()
		}
		if err := r.op("op.", ep, p, rng, a.latest); err != nil {
			return nil, fmt.Errorf("replaying %s on %s: %w", ep, p.url, err)
		}
	}
	if err := r.cover(ctx, rng, a.multi, 40, "replay@perfbench.example"); err != nil {
		return nil, err
	}
	sw, urls, err := serveLatest(samplePages(rng, a.pages, 60))
	if err != nil {
		return nil, err
	}
	defer sw.close()
	if err := r.web(ctx, urls); err != nil {
		return nil, err
	}
	return r.finish(), nil
}
