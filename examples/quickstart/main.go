// Quickstart: the AIDE loop end to end, in one process.
//
// It stands up a synthetic web site, tracks it with w3newer, remembers a
// page with the snapshot facility, lets the page change, and renders the
// HtmlDiff merged page showing exactly what changed — the workflow of
// §6's Remember / Diff / History links.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"aide/internal/hotlist"
	"aide/internal/simclock"
	"aide/internal/snapshot"
	"aide/internal/tracker"
	"aide/internal/w3config"
	"aide/internal/webclient"
	"aide/internal/websim"
)

func main() {
	// A simulated web and clock: September 1995, compressed.
	clock := simclock.New(time.Time{})
	web := websim.New(clock)
	client := webclient.New(web)

	page := web.Site("www.usenix.org").Page("/")
	page.Set(websim.USENIXSept)

	// --- 1. w3newer: what's new on my hotlist? -------------------------
	entries := []hotlist.Entry{{URL: "http://www.usenix.org/", Title: "USENIX Association"}}
	hist := hotlist.NewHistory()
	hist.Visit("http://www.usenix.org/", clock.Now()) // we just read it

	cfg, err := w3config.ParseString("Default 0\n")
	if err != nil {
		log.Fatal(err)
	}
	tr := tracker.New(client, cfg, hist, clock)

	results := tr.Run(context.Background(), entries)
	fmt.Printf("day 0:  %s -> %s\n", results[0].Entry.Title, tracker.Label(results[0].Status))

	// --- 2. snapshot: remember the page --------------------------------
	dataDir, err := os.MkdirTemp("", "aide-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	fac, err := snapshot.New(dataDir, client, clock)
	if err != nil {
		log.Fatal(err)
	}
	const user = "you@example.com"
	res, err := fac.Remember(context.Background(), user, "http://www.usenix.org/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("        remembered as revision %s\n", res.Rev)

	// --- 3. five weeks pass; the page changes --------------------------
	web.Advance(35 * 24 * time.Hour)
	page.Set(websim.USENIXNov)

	results = tr.Run(context.Background(), entries)
	fmt.Printf("day 35: %s -> %s (modified %s)\n",
		results[0].Entry.Title, tracker.Label(results[0].Status),
		results[0].LastModified.Format("Jan 2 2006"))

	// --- 4. HtmlDiff: see exactly what changed -------------------------
	diff, err := fac.DiffSinceSaved(context.Background(), user, "http://www.usenix.org/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("        HtmlDiff vs your saved revision %s: %d difference regions\n",
		diff.OldRev, diff.Stats.Differences)
	fmt.Printf("        (%d deleted, %d inserted, %d modified tokens)\n",
		diff.Stats.Deleted, diff.Stats.Inserted, diff.Stats.Modified)

	out := "quickstart_diff.html"
	if err := os.WriteFile(out, []byte(diff.HTML), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("        merged page written to %s — open it in a browser:\n", out)
	fmt.Println("        deleted text is struck out, new text is bold italic,")
	fmt.Println("        and red/green arrows chain the changes together.")
}
