package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"aide/internal/simclock"
	"aide/internal/snapshot"
	"aide/internal/websim"
)

// rev is one archived revision as the benchmark generated it: the
// revision number the archive must assign, the capture instant, and the
// body, with the offset at which the documented §4.1 BASE directive is
// injected when the revision is served.
type rev struct {
	num    string
	at     time.Time
	body   string
	baseAt int // -1 when the body already carries a <BASE>
}

// page is one archived URL with its revisions, oldest first.
type page struct {
	url  string
	revs []rev
}

func newRev(n int, at time.Time, body string) rev {
	return rev{num: fmt.Sprintf("1.%d", n), at: at.UTC().Truncate(time.Second), body: body, baseAt: baseOffset(body)}
}

// baseOffset mirrors the BASE injection /co and mementos document: the
// tag goes right after <HEAD> (case-insensitive), at the front when the
// page has no <HEAD>, and not at all when it already has a <BASE>.
func baseOffset(doc string) int {
	upper := strings.ToUpper(doc)
	if strings.Contains(upper, "<BASE") {
		return -1
	}
	if i := strings.Index(upper, "<HEAD>"); i >= 0 {
		return i + len("<HEAD>")
	}
	return 0
}

// checkServed verifies that got is r's body with the BASE directive for
// url injected.
func checkServed(got []byte, r rev, url string) error {
	if r.baseAt < 0 {
		if string(got) != r.body {
			return fmt.Errorf("served body of %s differs from the archived one", r.num)
		}
		return nil
	}
	tag := `<BASE HREF="` + url + `">`
	at := r.baseAt
	if len(got) != len(r.body)+len(tag) || string(got[:at]) != r.body[:at] ||
		string(got[at:at+len(tag)]) != tag || string(got[at+len(tag):]) != r.body[at:] {
		return fmt.Errorf("served body of %s (%d bytes) is not the archived body plus BASE (%d bytes)",
			r.num, len(got), len(r.body)+len(tag))
	}
	return nil
}

// captureClock is the seeding clock: set to each revision's capture
// instant before its check-in. Unlike simclock.Sim it may move back,
// so the archive can be seeded one page at a time.
type captureClock struct{ t time.Time }

func (c *captureClock) Now() time.Time { return c.t }

// seedArchive checks every page's revisions into a fresh snapshot store
// at dir through the facility's public API, each at its capture instant.
// It returns the bytes of changed check-in bodies (the denominator of
// stored bytes per user byte).
func seedArchive(ctx context.Context, dir string, pages []*page) (int64, error) {
	clock := &captureClock{}
	fac, err := snapshot.NewSharded(dir, 1, nil, clock)
	if err != nil {
		return 0, err
	}
	var user int64
	for _, p := range pages {
		for _, r := range p.revs {
			clock.t = r.at
			res, err := fac.RememberContent(ctx, "", p.url, r.body)
			if err != nil {
				return 0, fmt.Errorf("seeding %s %s: %w", p.url, r.num, err)
			}
			if res.Rev != r.num || !res.Changed {
				return 0, fmt.Errorf("seeding %s: archive assigned %s (changed %v), want new %s", p.url, res.Rev, res.Changed, r.num)
			}
			user += int64(len(r.body))
		}
	}
	return user, nil
}

// section7Corpus is the §7 population: over ~180 days, three
// full-replacement "what's new" churners archived every 1-2 days and 497
// ordinary ~8 KB pages, 40% of them never changing after the first save
// and the rest edited a little every 15-75 days.
func section7Corpus(rng *rand.Rand) []*page {
	const days = 180
	var pages []*page
	history := func(url string, gen func(int) string, every, jitter int) *page {
		p := &page{url: url}
		tod := time.Duration(rng.Intn(86400)) * time.Second
		for day, step := 0, 0; day <= days; step++ {
			at := simclock.Epoch.Add(time.Duration(day)*24*time.Hour + tod)
			p.revs = append(p.revs, newRev(step+1, at, gen(step)))
			d := every
			if jitter > 0 {
				d += rng.Intn(jitter)
			}
			day += max(d, 1)
		}
		return p
	}
	for i := 0; i < 3; i++ {
		pages = append(pages, history(fmt.Sprintf("http://whatsnew%d.example.com/", i),
			websim.ReplaceGenerator("What's New", 900, rng.Int63()), 1, 2))
	}
	for i := 0; i < 497; i++ {
		url := fmt.Sprintf("http://site%02d.example.com/page%d.html", i%40, i)
		gen := websim.SizedChangeGenerator(950, 60, rng.Int63())
		if rng.Float64() < 0.4 {
			pages = append(pages, history(url, gen, 1000, 0))
		} else {
			pages = append(pages, history(url, gen, 15, 60))
		}
	}
	return pages
}

// driftCorpus is the deep-archive population: n ~9 KB pages with revs
// revisions a week apart. Each revision rewrites a few sentences in
// place and now and then inserts or drops a paragraph; changes
// accumulate, so revisions far apart differ a lot.
func driftCorpus(rng *rand.Rand, n, revs int) []*page {
	pages := make([]*page, n)
	for i := range pages {
		p := &page{url: fmt.Sprintf("http://deep%02d.example.org/archive/page%03d.html", i%25, i)}
		title := fmt.Sprintf("Project notes %d", i)
		paras := make([][]string, 30)
		for j := range paras {
			paras[j] = sentences(rng, 3+rng.Intn(3))
		}
		tod := time.Duration(rng.Intn(7*86400)) * time.Second
		for r := 0; r < revs; r++ {
			if r > 0 {
				for k := 3 + rng.Intn(4); k > 0; k-- {
					para := paras[rng.Intn(len(paras))]
					para[rng.Intn(len(para))] = sentence(rng)
				}
				if rng.Intn(4) == 0 {
					at := rng.Intn(len(paras) + 1)
					paras = append(paras[:at], append([][]string{sentences(rng, 3+rng.Intn(3))}, paras[at:]...)...)
				}
				if rng.Intn(5) == 0 && len(paras) > 20 {
					at := rng.Intn(len(paras))
					paras = append(paras[:at], paras[at+1:]...)
				}
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "<HTML><HEAD><TITLE>%s</TITLE></HEAD><BODY>\n<H1>%s</H1>\n", title, title)
			for _, para := range paras {
				fmt.Fprintf(&sb, "<P>%s</P>\n", strings.Join(para, " "))
			}
			sb.WriteString("</BODY></HTML>\n")
			at := simclock.Epoch.Add(time.Duration(r)*7*24*time.Hour + tod)
			p.revs = append(p.revs, newRev(r+1, at, sb.String()))
		}
		pages[i] = p
	}
	return pages
}

func sentence(rng *rand.Rand) string {
	s := websim.Filler(rng, 6+rng.Intn(9))
	return strings.ToUpper(s[:1]) + s[1:] + "."
}

func sentences(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = sentence(rng)
	}
	return out
}

// renders remembers the hash of the first rendering of every diff pair,
// so a repeated pair (from the cache or freshly rendered, through /diff
// or /memento/diff) must come back byte-identical.
type renders struct {
	mu sync.Mutex
	m  map[string][sha256.Size]byte
}

func (r *renders) check(url, r1, r2 string, body []byte) error {
	// Every rendering is titled with the pair it compares.
	if !bytes.Contains(body, []byte("("+r1+" vs "+r2+")")) {
		return fmt.Errorf("diff of %s %s..%s does not name the pair it rendered", url, r1, r2)
	}
	key := url + " " + r1 + " " + r2
	h := sha256.Sum256(body)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = map[string][sha256.Size]byte{}
	}
	if prev, ok := r.m[key]; ok && prev != h {
		return fmt.Errorf("diff of %s %s..%s differs from its first rendering", url, r1, r2)
	}
	r.m[key] = h
	return nil
}

func (r *renders) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}
