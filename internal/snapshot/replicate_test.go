package snapshot

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestExportImportRoundTrip(t *testing.T) {
	leader := newRig(t)
	p := leader.web.Site("h").Page("/p")
	p.Set("<P>version one content.</P>\n")
	leader.fac.Remember(context.Background(), userA, "http://h/p")
	leader.web.Advance(time.Hour)
	p.Set("<P>version two content.</P>\n")
	leader.fac.Remember(context.Background(), userA, "http://h/p")
	leader.web.Site("h").Page("/q").Set("other page\n")
	leader.fac.Remember(context.Background(), userB, "http://h/q")

	var dump bytes.Buffer
	if err := leader.fac.Export(&dump); err != nil {
		t.Fatal(err)
	}

	follower := newRig(t)
	files, err := follower.fac.Import(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if files < 4 { // two archives + two user control files
		t.Fatalf("imported %d files", files)
	}
	// The replica serves the same history and user state.
	revs, seenA, err := follower.fac.History(userA, "http://h/p")
	if err != nil || len(revs) != 2 || !seenA["1.2"] {
		t.Fatalf("replica history: %d revs, seen %v, err %v", len(revs), seenA, err)
	}
	text, err := follower.fac.Checkout("http://h/p", "1.1")
	if err != nil || text != "<P>version one content.</P>\n" {
		t.Fatalf("replica checkout: (%q,%v)", text, err)
	}
	urls, _ := follower.fac.ArchivedURLs()
	if len(urls) != 2 {
		t.Fatalf("replica urls = %v", urls)
	}
}

// TestExportImportCarriesEntitySidecars checks the dump includes the
// §5.3 entity-checksum sidecars, so a replica can answer EntityChanges.
func TestExportImportCarriesEntitySidecars(t *testing.T) {
	leader := newRig(t)
	leader.fac.SetEntityTracking(EntityTrackingOptions{Enabled: true})
	site := leader.web.Site("h")
	site.Page("/i.gif").Set("image v1")
	site.Page("/p").Set(`<P>doc v1</P><IMG SRC="i.gif">`)
	if _, err := leader.fac.Remember(context.Background(), userA, "http://h/p"); err != nil {
		t.Fatal(err)
	}
	leader.web.Advance(time.Hour)
	site.Page("/i.gif").Set("image v2")
	site.Page("/p").Set(`<P>doc v2</P><IMG SRC="i.gif">`)
	if _, err := leader.fac.Remember(context.Background(), userA, "http://h/p"); err != nil {
		t.Fatal(err)
	}
	want, err := leader.fac.EntityChanges("http://h/p", "1.1", "1.2")
	if err != nil || len(want) != 1 || want[0].Kind != "modified" {
		t.Fatalf("leader entity changes = %+v, err %v", want, err)
	}

	var dump bytes.Buffer
	if err := leader.fac.Export(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), `"kind":"entities"`) {
		t.Fatal("dump carries no entity sidecars")
	}
	follower := newRig(t)
	if _, err := follower.fac.Import(bytes.NewReader(dump.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := follower.fac.EntityChanges("http://h/p", "1.1", "1.2")
	if err != nil || len(got) != 1 || got[0].URL != want[0].URL || got[0].Kind != "modified" {
		t.Fatalf("replica entity changes = %+v, err %v", got, err)
	}
	// User control files rode along too.
	if urls := follower.fac.UserURLs(userA); len(urls) != 1 || urls[0] != "http://h/p" {
		t.Fatalf("replica user urls = %v", urls)
	}
}

// TestImportIntoNonEmptyRepo checks an import merges with existing
// archives: same-name files take the dump's content, others survive.
func TestImportIntoNonEmptyRepo(t *testing.T) {
	leader := newRig(t)
	leader.web.Site("h").Page("/shared").Set("leader's shared content\n")
	leader.fac.Remember(context.Background(), userA, "http://h/shared")
	var dump bytes.Buffer
	if err := leader.fac.Export(&dump); err != nil {
		t.Fatal(err)
	}

	follower := newRig(t)
	follower.web.Site("h").Page("/shared").Set("follower's shared content\n")
	follower.fac.Remember(context.Background(), userB, "http://h/shared")
	follower.web.Site("h").Page("/own").Set("follower-only page\n")
	follower.fac.Remember(context.Background(), userB, "http://h/own")

	if _, err := follower.fac.Import(bytes.NewReader(dump.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The shared archive now holds the leader's history...
	text, err := follower.fac.Checkout("http://h/shared", "")
	if err != nil || text != "leader's shared content\n" {
		t.Fatalf("shared head after import = (%q,%v)", text, err)
	}
	// ...while the follower-only archive is untouched.
	text, err = follower.fac.Checkout("http://h/own", "")
	if err != nil || text != "follower-only page\n" {
		t.Fatalf("own head after import = (%q,%v)", text, err)
	}
	urls, _ := follower.fac.ArchivedURLs()
	if len(urls) != 2 {
		t.Fatalf("urls after merge import = %v", urls)
	}
}

// TestImportTruncatedStream checks a dump cut off mid-record reports a
// corrupt-stream error and the count of files installed before it.
func TestImportTruncatedStream(t *testing.T) {
	leader := newRig(t)
	leader.web.Site("h").Page("/p1").Set("first page body\n")
	leader.fac.Remember(context.Background(), userA, "http://h/p1")
	leader.web.Site("h").Page("/p2").Set("second page body\n")
	leader.fac.Remember(context.Background(), userA, "http://h/p2")
	var dump bytes.Buffer
	if err := leader.fac.Export(&dump); err != nil {
		t.Fatal(err)
	}
	full := dump.String()
	firstEnd := strings.Index(full, "\n") + 1
	if firstEnd <= 0 || firstEnd >= len(full) {
		t.Fatalf("unexpected dump shape:\n%s", full)
	}
	// Keep the first record whole and tear the second in half.
	torn := full[:firstEnd+(len(full)-firstEnd)/2]

	follower := newRig(t)
	files, err := follower.fac.Import(strings.NewReader(torn))
	if err == nil {
		t.Fatal("truncated import succeeded")
	}
	if !strings.Contains(err.Error(), "corrupt export stream") {
		t.Fatalf("truncated import error = %v", err)
	}
	if files != 1 {
		t.Fatalf("files before tear = %d, want 1", files)
	}
	// Truncating inside the very first record installs nothing.
	files, err = follower.fac.Import(strings.NewReader(full[:firstEnd/2]))
	if err == nil || files != 0 {
		t.Fatalf("tear in first record = (%d,%v)", files, err)
	}
}

// TestImportDeleteEntries checks the anti-entropy delete form removes
// the named files (and tolerates already-absent ones).
func TestImportDeleteEntries(t *testing.T) {
	r := newRig(t)
	r.web.Site("h").Page("/p").Set("to be deleted\n")
	r.fac.Remember(context.Background(), userA, "http://h/p")
	name := archiveBase("http://h/p") + archiveSuffix
	del := `{"kind":"archive","name":"` + name + `","delete":true}` + "\n"
	if _, err := r.fac.Import(strings.NewReader(del)); err != nil {
		t.Fatal(err)
	}
	if urls, _ := r.fac.ArchivedURLs(); len(urls) != 0 {
		t.Fatalf("urls after delete = %v", urls)
	}
	// Deleting again is not an error (convergent repair).
	if _, err := r.fac.Import(strings.NewReader(del)); err != nil {
		t.Fatal(err)
	}
	// Unsafe delete names are still rejected.
	if _, err := r.fac.Import(strings.NewReader(`{"kind":"archive","name":"../x,v","delete":true}`)); err == nil {
		t.Fatal("unsafe delete name accepted")
	}
}

func TestImportRejectsUnsafeDumps(t *testing.T) {
	follower := newRig(t)
	cases := []string{
		`{"kind":"archive","name":"../escape,v","data":"x"}`,
		`{"kind":"weird","name":"a","data":"x"}`,
		`{"kind":"archive","name":"","data":"x"}`,
		`not json at all`,
	}
	for _, c := range cases {
		if _, err := follower.fac.Import(strings.NewReader(c)); err == nil {
			t.Errorf("Import(%q) succeeded", c)
		}
	}
}

func TestGateLimitsSimultaneousUsers(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(200)
	})
	gate := NewGate(slow, 2)
	ts := httptest.NewServer(gate)
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make(chan int, 4)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL)
			if err == nil {
				codes <- resp.StatusCode
				resp.Body.Close()
			}
		}()
	}
	<-started
	<-started
	// Both slots busy: the next request is turned away immediately.
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third request code = %d, want 503", resp.StatusCode)
	}
	close(release)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != 200 {
			t.Errorf("admitted request code = %d", c)
		}
	}
	if gate.Rejected() != 1 {
		t.Errorf("rejected = %d", gate.Rejected())
	}
	// After the burst, capacity is available again.
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestGateUnlimitedWhenZero(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	gate := NewGate(h, 0)
	ts := httptest.NewServer(gate)
	defer ts.Close()
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("unlimited gate: %v %d", err, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestServerMaxSimultaneousWired(t *testing.T) {
	r := newRig(t)
	srv := NewServer(r.fac)
	srv.KeepaliveInterval = 0
	srv.MaxSimultaneous = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A single request passes through the gate.
	resp, err := http.Get(ts.URL + "/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("gated index: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}
