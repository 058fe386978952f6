package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"html"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aide/internal/hotlist"
	"aide/internal/robots"
	"aide/internal/snapshot"
	"aide/internal/tracker"
	"aide/internal/w3config"
	"aide/internal/webclient"
	"aide/internal/websim"
)

// w3newerPass runs whole w3newer passes, one process each, over a
// hotlist on a loopback websim web. Between passes a seeded share of
// pages is edited and the user "visits" every page, so each report must
// list exactly the pages edited since the previous pass.
type w3newerPass struct {
	e     *env
	web   *simWeb
	pages []*trackedPage
	dir   string
	rng   *rand.Rand // the edit sequence
	pass  int        // passes run so far; pass k's visits are at visitTime(k-1)

	warmFails []sample
}

const (
	w3Hosts     = 32
	w3PerHost   = 48
	w3EditShare = 0.04
)

// w3Base anchors the simulated timeline: pages were written 30 days
// before it, and the user's k-th visit is k days after it.
var w3Base = time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)

type trackedPage struct {
	url      string
	web      *websim.Page
	gen      func(int) string
	step     int
	allowed  bool // robots.txt lets w3newer check it
	noLM     bool // served without Last-Modified
	versions []rev
}

func newW3newerPass(e *env) workload { return &w3newerPass{e: e} }

func visitTime(k int) time.Time { return w3Base.Add(time.Duration(k) * 24 * time.Hour) }

func (w *w3newerPass) setup(ctx context.Context) error {
	rng := rand.New(rand.NewSource(w.e.seed))
	var err error
	if w.web, err = newSimWeb(w3Hosts); err != nil {
		return err
	}
	written := w3Base.Add(-30 * 24 * time.Hour)
	var entries []hotlist.Entry
	for h := 0; h < w3Hosts; h++ {
		robotsRules := h%4 == 0
		if robotsRules {
			w.web.site(h).SetRobots("User-agent: *\nDisallow: /private/\n")
		}
		for i := 0; i < w3PerHost; i++ {
			path := fmt.Sprintf("/pub/doc%02d.html", i)
			private := robotsRules && i%6 == 0
			if private {
				path = fmt.Sprintf("/private/doc%02d.html", i)
			}
			// The web's shape (sizes, which pages lack Last-Modified) is
			// the same for every seed; the seed picks the words and edits.
			wp := w.web.site(h).Page(path)
			tp := &trackedPage{url: wp.URL(), web: wp, allowed: !private,
				gen: websim.SizedChangeGenerator(250+(h*w3PerHost+i)*37%300, 30, rng.Int63())}
			body := tp.gen(0)
			wp.SetAt(body, written)
			tp.versions = []rev{newRev(1, written, body)}
			if (h*w3PerHost+i)%10 < 3 {
				wp.SetNoLastModified() // CGI-style: checked by GET + checksum
				tp.noLM = true
			}
			w.pages = append(w.pages, tp)
			entries = append(entries, hotlist.Entry{URL: tp.url, Title: fmt.Sprintf("Host %d %s", h, path)})
		}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	if w.dir, err = w.e.dir("w3newer"); err != nil {
		return err
	}
	var hl bytes.Buffer
	if err := hotlist.WriteNetscape(&hl, "perfbench hotlist", entries); err != nil {
		return err
	}
	if err := os.WriteFile(w.path("hotlist.html"), hl.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(w.path("w3newer.cfg"), []byte("Default 0\n"), 0o644); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(w.e.seed + 1))
	w.e.mark("web and hotlist")
	// Two unmeasured passes: the first learns every page's state, the
	// second sees the first round of edits.
	for k := 0; k < 2; k++ {
		if _, err := w.onePass(nil); err != nil {
			w.warmFails = append(w.warmFails, sample{ep: "pass", err: "warm-up: " + err.Error()})
		}
	}
	w.e.mark("warm-up passes")
	return nil
}

func (w *w3newerPass) path(name string) string { return filepath.Join(w.dir, name) }

func (w *w3newerPass) close() { w.web.close() }

// passStats is one w3newer process's accounting.
type passStats struct {
	cpu         float64 // seconds
	maxRSSMB    float64
	counters    map[string]float64
	heads, gets int // page requests the simulated web served
}

// edit applies the seeded edits before pass k (none before the first)
// and returns the URLs the report must list as changed.
func (w *w3newerPass) edit() map[string]bool {
	want := map[string]bool{}
	if w.pass == 0 {
		return want
	}
	at := visitTime(w.pass - 1).Add(12 * time.Hour)
	n := int(w3EditShare * float64(len(w.pages)))
	for _, i := range w.rng.Perm(len(w.pages))[:n] {
		tp := w.pages[i]
		tp.step++
		body := tp.gen(tp.step)
		tp.web.SetAt(body, at)
		tp.versions = append(tp.versions, newRev(len(tp.versions)+1, at, body))
		if tp.allowed {
			want[tp.url] = true
		}
	}
	return want
}

// history is the user's browser history before pass k: every page
// visited at visitTime(k-1), after everything the report showed.
func (w *w3newerPass) history() *hotlist.History {
	h := hotlist.NewHistory()
	for _, tp := range w.pages {
		h.Visit(tp.url, visitTime(w.pass-1))
	}
	return h
}

// onePass edits, writes the history, runs one w3newer process and
// verifies its report. st, when not nil, receives the accounting.
func (w *w3newerPass) onePass(st *passStats) (time.Duration, error) {
	want := w.edit()
	var hb bytes.Buffer
	if err := w.history().WriteHistory(&hb); err != nil {
		return 0, err
	}
	if err := os.WriteFile(w.path("history.txt"), hb.Bytes(), 0o644); err != nil {
		return 0, err
	}
	w.pass++
	heads0, gets0 := w.web.web.TotalRequests()
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(w.e.bin, "w3newer"),
		"-hotlist", w.path("hotlist.html"), "-history", w.path("history.txt"),
		"-config", w.path("w3newer.cfg"), "-state", w.path("state.json"),
		"-workers", strconv.Itoa(ncpu()), "-retries", "1", "-timeout", "10s",
		"-o", w.path("report.html"))
	cmd.Stderr = &stderr
	cmd.SysProcAttr = childAttr()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return wall, fmt.Errorf("w3newer: %v: %.300s", err, stderr.String())
	}
	if st != nil {
		heads1, gets1 := w.web.web.TotalRequests()
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		*st = passStats{cpu: tvSec(ru.Utime) + tvSec(ru.Stime), maxRSSMB: float64(ru.Maxrss) / 1024,
			counters: metricsLine(stderr.String()), heads: heads1 - heads0, gets: gets1 - gets0}
	}
	return wall, w.verify(want)
}

// verify checks every report row: Changed exactly for the edited pages
// robots.txt allows, excluded exactly for the disallowed ones, seen
// without change for the rest.
func (w *w3newerPass) verify(want map[string]bool) error {
	data, err := os.ReadFile(w.path("report.html"))
	if err != nil {
		return err
	}
	allowed := map[string]bool{}
	for _, tp := range w.pages {
		allowed[tp.url] = tp.allowed
	}
	rows, url := 0, ""
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, `<DT><A HREF="`); ok {
			href, _, found := strings.Cut(rest, `"`)
			if !found {
				return fmt.Errorf("report row without a closing quote: %.120s", line)
			}
			url = html.UnescapeString(href)
			continue
		}
		status, ok := strings.CutPrefix(line, "<DD>")
		if !ok {
			continue
		}
		rows++
		okAllowed, known := allowed[url]
		switch {
		case !known:
			return fmt.Errorf("report lists %s, which is not on the hotlist", url)
		case strings.HasPrefix(status, "<B>Changed</B>") != want[url]:
			return fmt.Errorf("report says %q for %s; edited since the last pass: %v", status, url, want[url])
		case strings.HasPrefix(status, "Not checked: excluded by the robot") == okAllowed:
			return fmt.Errorf("report says %q for %s; robots.txt allows it: %v", status, url, okAllowed)
		case okAllowed && !want[url] && !strings.HasPrefix(status, "Seen:"):
			return fmt.Errorf("report says %q for unchanged %s", status, url)
		}
	}
	if rows != len(w.pages) {
		return fmt.Errorf("report has %d rows, hotlist %d", rows, len(w.pages))
	}
	return nil
}

// metricsLine parses w3newer's "w3newer: metrics: name=value ..." line.
func metricsLine(stderr string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(stderr, "\n") {
		rest, ok := strings.CutPrefix(line, "w3newer: metrics: ")
		if !ok {
			continue
		}
		for _, kv := range strings.Fields(rest) {
			k, v, _ := strings.Cut(kv, "=")
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = f
			}
		}
	}
	return out
}

func (w *w3newerPass) run(ctx context.Context, d time.Duration) (*outcome, error) {
	o := &outcome{op: "one whole w3newer pass (process start to report written)", opSpan: "op.pass",
		counters: map[string]float64{}, workPerOp: float64(len(w.pages))}
	for _, s := range w.warmFails {
		o.add(s)
	}
	self0 := selfCPU()
	start := time.Now()
	var passTime float64
	var heads, gets int
	for ctx.Err() == nil && time.Since(start) < d {
		var st passStats
		total0, steal0 := machineTicks()
		wall, err := w.onePass(&st)
		total1, steal1 := machineTicks()
		s := sample{ep: "pass", ms: float64(wall) / float64(time.Millisecond), primary: true,
			at: time.Since(start).Seconds(), steal: ratio(steal1-steal0, total1-total0)}
		if err != nil {
			s.err = err.Error()
		}
		o.add(s)
		passTime += wall.Seconds()
		o.programCPU += st.cpu
		o.peakRSSMB = max(o.peakRSSMB, st.maxRSSMB)
		for k, v := range st.counters {
			o.counters[k] += v
		}
		heads += st.heads
		gets += st.gets
	}
	o.window = time.Since(start).Seconds()
	o.clientCPU = selfCPU() - self0
	passes := float64(len(o.opMs))
	o.programOps = passes
	robotsFetches := o.counters["robots.fetches"]
	pageGets := float64(gets) - robotsFetches
	o.getShare = ratio(pageGets, pageGets+float64(heads))
	o.robotsPerPass = ratio(robotsFetches, passes)
	noLM, private := 0, 0
	for _, tp := range w.pages {
		if !tp.allowed {
			private++
		}
		if tp.noLM {
			noLM++
		}
	}
	o.charf("hotlist: %d URLs on %d loopback hosts (%d with robots.txt rules, %d URLs disallowed); %d without Last-Modified",
		len(w.pages), w3Hosts, w3Hosts/4, private, noLM)
	o.charf("per pass: %.0f pages edited (%.0f%%), %.0f HEAD and %.0f GET page checks (GET share %.3f), %.1f robots.txt fetches",
		w3EditShare*float64(len(w.pages)), 100*w3EditShare, ratio(float64(heads), passes), ratio(pageGets, passes), o.getShare, o.robotsPerPass)
	o.charf("throughput counts hotlist URLs checked per second of pass wall time: %.0f passes x %d URLs / %.2f s",
		passes, len(w.pages), passTime)
	return o, nil
}

// replay builds the in-process tracker w3newer builds and runs three
// more edit-then-pass rounds through tracker.Run, then times single
// checks and GETs, then archives the pages' version histories and
// measures every snapshot layer on them.
func (w *w3newerPass) replay(ctx context.Context, o *outcome) (*layerTimes, error) {
	tmp, err := w.e.dir("replay")
	if err != nil {
		return nil, err
	}
	var versioned []*page
	for _, tp := range w.pages {
		if len(tp.versions) > 1 {
			versioned = append(versioned, &page{url: tp.url, revs: tp.versions})
		}
	}
	if len(versioned) == 0 {
		return nil, fmt.Errorf("no page was edited")
	}
	data := filepath.Join(tmp, "data")
	user, err := seedArchive(ctx, data, versioned)
	if err != nil {
		return nil, err
	}
	stored, err := dirBytes(data, ",v")
	if err != nil {
		return nil, err
	}
	o.storedPerUserByte = ratio(float64(stored), float64(user))
	fac, err := snapshot.NewSharded(data, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	r := newReplayer(fac, tmp)

	cfg, err := w3config.ParseString("Default 0\n")
	if err != nil {
		return nil, err
	}
	entries := make([]hotlist.Entry, len(w.pages))
	for i, tp := range w.pages {
		entries[i] = hotlist.Entry{URL: tp.url, Title: tp.url}
	}
	for round := 0; round < 3; round++ {
		w.edit()
		hist := w.history()
		w.pass++
		client := webclient.New(&webclient.HTTPTransport{})
		client.Timeout = 10 * time.Second
		client.Retry = webclient.DefaultRetryPolicy()
		client.Retry.MaxAttempts = 1
		tr := tracker.New(client, cfg, hist, nil)
		tr.Opt.Concurrency = ncpu()
		tr.Opt.SkipHostAfterError = true
		tr.Robots = robots.NewCache(func(ctx context.Context, url string) (int, string, error) {
			info, err := client.Get(ctx, url)
			return info.Status, info.Body, err
		}, nil)
		if err := tr.LoadState(w.path("state.json")); err != nil {
			return nil, err
		}
		var results []tracker.Result
		r.tr.do("op.pass", func() { results = tr.Run(ctx, entries) })
		if sum := tracker.Summary(results); sum[tracker.Failed] > 0 {
			return nil, fmt.Errorf("replayed pass: %d checks failed", sum[tracker.Failed])
		}
		if err := tr.SaveState(w.path("state.json")); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(w.e.seed + 99))
	var urls []string
	for _, i := range rng.Perm(len(w.pages))[:60] {
		urls = append(urls, w.pages[i].url)
	}
	sort.Strings(urls)
	if err := r.web(ctx, urls); err != nil {
		return nil, err
	}
	if err := r.cover(ctx, rng, versioned, 40, "replay@perfbench.example"); err != nil {
		return nil, err
	}
	return r.finish(), nil
}
