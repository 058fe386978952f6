package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aide/internal/memento"
)

// Each verifier must turn a deliberately wrong response into a failed
// operation, and a failed operation must count in the run's tally.

func TestCheckServedRejectsWrongBody(t *testing.T) {
	r := newRev(1, time.Unix(0, 0), "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>x</BODY></HTML>\n")
	url := "http://h.example/p"
	good := strings.Replace(r.body, "<HEAD>", `<HEAD><BASE HREF="`+url+`">`, 1)
	if err := checkServed([]byte(good), r, url); err != nil {
		t.Fatalf("correct body rejected: %v", err)
	}
	for _, bad := range []string{r.body, strings.Replace(good, "x", "y", 1), good + " "} {
		if checkServed([]byte(bad), r, url) == nil {
			t.Errorf("wrong body accepted: %q", bad)
		}
	}
}

func TestRendersRejectsChangedRepeat(t *testing.T) {
	var rd renders
	if err := rd.check("u", "1.1", "1.2", []byte("<TITLE>u (1.1 vs 1.2)</TITLE>a")); err != nil {
		t.Fatal(err)
	}
	if rd.check("u", "1.1", "1.2", []byte("<TITLE>u (1.1 vs 1.2)</TITLE>b")) == nil {
		t.Error("a repeat that differs from the first rendering was accepted")
	}
	if rd.check("u", "1.1", "1.3", []byte("<TITLE>u (1.1 vs 1.2)</TITLE>a")) == nil {
		t.Error("a rendering of the wrong pair was accepted")
	}
}

func TestTimegateRejectsWrongMemento(t *testing.T) {
	p := &page{url: "http://h.example/p"}
	for i := 0; i < 3; i++ {
		p.revs = append(p.revs, newRev(i+1, time.Date(1996, 1, 1+10*i, 0, 0, 0, 0, time.UTC), "<HTML>v</HTML>"))
	}
	var srvBase string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Always redirect to the newest memento, whatever was asked.
		w.Header().Set("Location", srvBase+"/memento/"+memento.FormatTimestamp(p.revs[2].at)+"/"+p.url)
		w.WriteHeader(http.StatusFound)
	}))
	defer srv.Close()
	srvBase = srv.URL
	a := &archiveWorkload{c: newClient(1), srv: &snapshotd{base: srv.URL},
		mementos: map[string][]memento.Memento{p.url: {{Rev: "1.1", Time: p.revs[0].at}, {Rev: "1.2", Time: p.revs[1].at}, {Rev: "1.3", Time: p.revs[2].at}}}}
	err := a.timegate(p, p.revs[0].at.Add(time.Hour))
	if err == nil || !strings.Contains(err.Error(), "Location") {
		t.Fatalf("wrong negotiation accepted: %v", err)
	}
	var o outcome
	o.add(sample{ep: "timegate", primary: true, err: err.Error()})
	if o.failed != 1 || o.attempted != 1 {
		t.Errorf("failed %d of %d, want 1 of 1", o.failed, o.attempted)
	}
}

func TestRememberRejectsWrongRevision(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "<HTML><BODY><P><A HREF=\"x\">x</A>: saved as revision 1.7.</P></BODY></HTML>\n")
	}))
	defer srv.Close()
	web, err := newSimWeb(1)
	if err != nil {
		t.Fatal(err)
	}
	defer web.close()
	wp := web.site(0).Page("/p")
	lp := &livePage{web: wp, gen: func(step int) string { return fmt.Sprint("body ", step) }}
	lp.url = wp.URL()
	lp.revs = []rev{newRev(1, time.Now(), lp.gen(0))}
	in := &ingest{c: newClient(1), srv: &snapshotd{base: srv.URL}}
	if err := in.write(&user{name: "u"}, lp); err == nil || !strings.Contains(err.Error(), "want new revision 1.2") {
		t.Fatalf("wrong revision accepted: %v", err)
	}
}

func TestReportRejectsWrongChangeSet(t *testing.T) {
	dir := t.TempDir()
	w := &w3newerPass{dir: dir, pages: []*trackedPage{
		{url: "http://a.example/1", allowed: true},
		{url: "http://a.example/2", allowed: true},
		{url: "http://a.example/private/3", allowed: false},
	}}
	report := func(first string) {
		rows := first +
			"<DT><A HREF=\"http://a.example/2\">2</A>\n<DD>Seen: last modified Mon Jan  1 00:00:00 2001.\n" +
			"<DT><A HREF=\"http://a.example/private/3\">3</A>\n<DD>Not checked: excluded by the robot exclusion protocol.\n"
		if err := os.WriteFile(filepath.Join(dir, "report.html"), []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	report("<DT><A HREF=\"http://a.example/1\">1</A>\n<DD><B>Changed</B>: modified Mon Jan  1 12:00:00 2001.\n")
	if err := w.verify(map[string]bool{"http://a.example/1": true}); err != nil {
		t.Fatalf("correct report rejected: %v", err)
	}
	if w.verify(map[string]bool{"http://a.example/2": true}) == nil {
		t.Error("report missing an edited page accepted")
	}
	report("<DT><A HREF=\"http://a.example/1\">1</A>\n<DD><B>Error</B>: HTTP status 500 (server error).\n")
	if w.verify(map[string]bool{}) == nil {
		t.Error("report with a failed check accepted")
	}
}
