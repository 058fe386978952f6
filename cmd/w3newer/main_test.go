package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aide/internal/obs"
	"aide/internal/sched"
	"aide/internal/simclock"
	"aide/internal/websim"
)

// cliRig stands up a synthetic web over real HTTP and writes the CLI's
// input files (hotlist, history, config) into a temp dir.
type cliRig struct {
	dir      string
	web      *websim.Web
	srv      *httptest.Server
	hotlist  string
	history  string
	config   string
	statePth string
}

func newCLIRig(t *testing.T) *cliRig {
	t.Helper()
	clock := simclock.New(time.Time{})
	web := websim.New(clock)
	srv := httptest.NewServer(web.Handler())
	t.Cleanup(srv.Close)
	dir := t.TempDir()
	return &cliRig{
		dir: dir, web: web, srv: srv,
		hotlist:  filepath.Join(dir, "bookmarks.html"),
		history:  filepath.Join(dir, "history.txt"),
		config:   filepath.Join(dir, "w3newer.cfg"),
		statePth: filepath.Join(dir, "state.json"),
	}
}

// urlFor maps a logical host/path onto the path-prefixed real-HTTP URL.
func (r *cliRig) urlFor(host, path string) string {
	return r.srv.URL + "/" + host + path
}

func (r *cliRig) writeHotlist(t *testing.T, urls map[string]string) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE NETSCAPE-Bookmark-file-1>\n<TITLE>Bookmarks</TITLE>\n<H1>Bookmarks</H1>\n<DL><p>\n")
	for url, title := range urls {
		fmt.Fprintf(&sb, "    <DT><A HREF=\"%s\">%s</A>\n", url, title)
	}
	sb.WriteString("</DL><p>\n")
	if err := os.WriteFile(r.hotlist, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func (r *cliRig) writeHistory(t *testing.T, visits map[string]time.Time) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("ncsa-mosaic-history-format-1\nDefault\n")
	for url, ts := range visits {
		fmt.Fprintf(&sb, "%s %s\n", url, ts.UTC().Format(time.ANSIC))
	}
	if err := os.WriteFile(r.history, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCLIEndToEnd(t *testing.T) {
	r := newCLIRig(t)
	// Two pages: one changed since the visit, one not.
	changed := r.web.Site("news.example").Page("/daily.html")
	changed.Set("<P>old news.</P>")
	stable := r.web.Site("docs.example").Page("/manual.html")
	stable.Set("<P>manual.</P>")

	visitTime := r.web.Clock().Now().Add(time.Hour)
	r.web.Advance(48 * time.Hour)
	changed.Set("<P>fresh news!</P>") // modified after the visit

	changedURL := r.urlFor("news.example", "/daily.html")
	stableURL := r.urlFor("docs.example", "/manual.html")
	r.writeHotlist(t, map[string]string{
		changedURL: "Daily News",
		stableURL:  "The Manual",
	})
	r.writeHistory(t, map[string]time.Time{
		changedURL: visitTime,
		stableURL:  visitTime,
	})
	if err := os.WriteFile(r.config, []byte("Default 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-hotlist", r.hotlist,
		"-history", r.history,
		"-config", r.config,
		"-state", r.statePth,
		"-snapshot", "http://aide.example/snap",
		"-user", "fred@att.com",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	report := out.String()
	if !strings.Contains(report, "1 of 2 pages have changed") {
		t.Errorf("summary wrong:\n%s", report)
	}
	if !strings.Contains(report, "Daily News") || !strings.Contains(report, "The Manual") {
		t.Errorf("titles missing:\n%s", report)
	}
	if !strings.Contains(report, "/snap/remember?") {
		t.Errorf("snapshot links missing:\n%s", report)
	}
	// State was persisted for the next run.
	if _, err := os.Stat(r.statePth); err != nil {
		t.Errorf("state file not written: %v", err)
	}
}

func TestCLIOutputFileAndSummary(t *testing.T) {
	r := newCLIRig(t)
	r.web.Site("h.example").Page("/p").Set("<P>content.</P>")
	r.writeHotlist(t, map[string]string{r.urlFor("h.example", "/p"): "Page"})
	outPath := filepath.Join(r.dir, "report.html")

	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-hotlist", r.hotlist, "-o", outPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "What's new") {
		t.Errorf("report file content:\n%s", data)
	}
	if !strings.Contains(errb.String(), "changed") {
		t.Errorf("summary line missing: %s", errb.String())
	}
}

func TestCLIPrioritiesFile(t *testing.T) {
	r := newCLIRig(t)
	r.web.Site("hi.example").Page("/a").Set("<P>a.</P>")
	r.web.Site("lo.example").Page("/b").Set("<P>b.</P>")
	hiURL := r.urlFor("hi.example", "/a")
	loURL := r.urlFor("lo.example", "/b")
	r.writeHotlist(t, map[string]string{loURL: "ZLowPriority", hiURL: "AHighPriority"})
	prioPath := filepath.Join(r.dir, "prio.cfg")
	// Escape regex metacharacters in the URL by matching on substring
	// pattern instead.
	if err := os.WriteFile(prioPath, []byte(".*hi\\.example.* 10\nDefault 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-hotlist", r.hotlist, "-priorities", prioPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	report := out.String()
	if !(strings.Index(report, "AHighPriority") < strings.Index(report, "ZLowPriority")) {
		t.Errorf("priority ordering not applied:\n%s", report)
	}
}

func TestCLIMissingInputs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{}, &out, &errb); code != 2 {
		t.Fatalf("no hotlist exit = %d", code)
	}
	if code := run(context.Background(), []string{"-hotlist", "/no/such/file"}, &out, &errb); code != 1 {
		t.Fatalf("missing hotlist file exit = %d", code)
	}
}

func TestCLIDaemonModePasses(t *testing.T) {
	r := newCLIRig(t)
	r.web.Site("d.example").Page("/p").Set("<P>content.</P>")
	r.writeHotlist(t, map[string]string{r.urlFor("d.example", "/p"): "Page"})
	outPath := filepath.Join(r.dir, "report.html")

	var out, errb bytes.Buffer
	start := time.Now()
	code := run(context.Background(), []string{
		"-hotlist", r.hotlist, "-o", outPath,
		"-every", "10ms", "-passes", "3",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("daemon mode returned too fast: %v", elapsed)
	}
	// Three result summary lines and three metrics lines, one of each
	// per pass.
	if got := strings.Count(errb.String(), "errors ->"); got != 3 {
		t.Errorf("summary lines = %d, want 3:\n%s", got, errb.String())
	}
	if got := strings.Count(errb.String(), "w3newer: metrics:"); got != 3 {
		t.Errorf("metrics lines = %d, want 3:\n%s", got, errb.String())
	}
	// Counters are cumulative across passes.
	if !strings.Contains(errb.String(), "tracker.sweeps=") {
		t.Errorf("metrics line missing tracker.sweeps:\n%s", errb.String())
	}
}

func TestCLIContinuousSchedulerDaemon(t *testing.T) {
	r := newCLIRig(t)
	r.web.Site("s.example").Page("/p").Set("<P>content.</P>")
	r.writeHotlist(t, map[string]string{r.urlFor("s.example", "/p"): "Page"})
	if err := os.WriteFile(r.config, []byte("Default 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(r.dir, "report.html")

	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-hotlist", r.hotlist, "-config", r.config, "-o", outPath,
		"-state", r.statePth,
		"-daemon", "-sched-min", "30ms", "-sched-max", "200ms",
		"-host-rps", "1000", "-passes", "3",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	stderrS := errb.String()
	// One tick line per productive tick, each carrying queue depth and
	// deferred counts; metrics lines include the sched.* registry.
	if got := strings.Count(stderrS, "w3newer: tick "); got != 3 {
		t.Errorf("tick lines = %d, want 3:\n%s", got, stderrS)
	}
	if !strings.Contains(stderrS, "queue=") || !strings.Contains(stderrS, "deferred=") {
		t.Errorf("tick line missing queue/deferred counts:\n%s", stderrS)
	}
	if !strings.Contains(stderrS, "sched.queue_len=") {
		t.Errorf("metrics line missing sched.* entries:\n%s", stderrS)
	}
	if !strings.Contains(stderrS, "scheduler stopped") {
		t.Errorf("missing shutdown line:\n%s", stderrS)
	}
	// Report and both state files were written.
	if data, err := os.ReadFile(outPath); err != nil || !strings.Contains(string(data), "Page") {
		t.Errorf("report file: err=%v content=%q", err, data)
	}
	if _, err := os.Stat(r.statePth); err != nil {
		t.Errorf("tracker state not written: %v", err)
	}
	if _, err := os.Stat(r.statePth + ".sched"); err != nil {
		t.Errorf("scheduler state not written: %v", err)
	}
}

// TestCLIDaemonKeepsUnseenChange: a page modified after the user's last
// visit stays reported as changed through every scheduler tick. The
// scheduler learns from what each poll observed, not from the report's
// verdict, so the daemon never marks the change as seen on the user's
// behalf.
func TestCLIDaemonKeepsUnseenChange(t *testing.T) {
	r := newCLIRig(t)
	page := r.web.Site("u.example").Page("/p")
	page.Set("<P>before.</P>")
	visit := r.web.Clock().Now()
	r.web.Advance(time.Hour)
	page.Set("<P>after the visit.</P>") // Last-Modified = visit + 1h
	// The page changes again once the first tick has checked it: every
	// tick must go to the wire, and the report must carry the second
	// change, not the first one cached.
	var heads atomic.Int32
	h := r.web.Handler()
	r.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.ServeHTTP(w, req)
		if req.Method == http.MethodHead && strings.HasSuffix(req.URL.Path, "/p") && heads.Add(1) == 1 {
			r.web.Advance(time.Hour)
			page.Set("<P>changed again.</P>") // Last-Modified = visit + 2h
		}
	}))
	t.Cleanup(r.srv.Close)
	url := r.urlFor("u.example", "/p")
	r.writeHotlist(t, map[string]string{url: "Page"})
	r.writeHistory(t, map[string]time.Time{url: visit})
	if err := os.WriteFile(r.config, []byte("Default 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(r.dir, "report.html")
	skipped := obs.Default.CounterVec("sched.polls", "outcome").With(sched.Skipped.String())
	skippedBefore := skipped.Value()

	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-hotlist", r.hotlist, "-history", r.history, "-config", r.config,
		"-o", outPath, "-daemon", "-sched-min", "20ms", "-sched-max", "20ms",
		"-host-rps", "1000", "-passes", "3",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if got := strings.Count(errb.String(), "w3newer: tick "); got != 3 {
		t.Errorf("tick lines = %d, want 3:\n%s", got, errb.String())
	}
	if got := heads.Load(); got != 3 {
		t.Errorf("HEAD requests = %d, want one per tick (3)", got)
	}
	if got := skipped.Value() - skippedBefore; got != 0 {
		t.Errorf("sched.polls{outcome=skipped} rose by %d, want 0", got)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<B>Changed</B>") {
		t.Errorf("final report lost the unseen change:\n%s", data)
	}
	if second := page.Current().Time.UTC().Format(time.ANSIC); !strings.Contains(string(data), second) {
		t.Errorf("final report lacks the second change's Last-Modified %s:\n%s", second, data)
	}
}
