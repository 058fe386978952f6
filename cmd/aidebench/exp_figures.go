package main

import (
	"context"
	"fmt"
	"time"

	"aide/internal/hotlist"
	"aide/internal/htmldiff"
	"aide/internal/robots"
	"aide/internal/simclock"
	"aide/internal/tracker"
	"aide/internal/w3config"
	"aide/internal/webclient"
	"aide/internal/websim"
)

// expTable1 parses the paper's literal Table 1 and shows the threshold
// each sample URL resolves to, demonstrating first-match-wins semantics.
func expTable1(_ context.Context, _ string) error {
	cfg, err := w3config.ParseString(w3config.Table1)
	if err != nil {
		return err
	}
	fmt.Println("    rules parsed from the paper's Table 1:")
	fmt.Printf("      %-60s %s\n", "Default", cfg.Default)
	for _, r := range cfg.Rules {
		fmt.Printf("      %-60s %s\n", r.Raw, r.Threshold)
	}
	fmt.Println("    sample URL resolution (first matching pattern wins):")
	samples := []string{
		"file:/home/douglis/todo.html",
		"http://www.yahoo.com/Computers/",
		"http://www.research.att.com/orgs/ssr/",
		"http://www.ncsa.uiuc.edu/SDG/Software/Mosaic/Docs/whats-new.html",
		"http://snapple.cs.washington.edu:600/mobile/",
		"http://www.unitedmedia.com/comics/dilbert/",
		"http://www.usenix.org/",
	}
	for _, u := range samples {
		fmt.Printf("      %-60s -> %-7s (rule %s)\n", u, cfg.ThresholdFor(u), cfg.MatchingRule(u))
	}
	return nil
}

// expFig1 builds a hotlist whose URLs land in every state the Figure 1
// report shows — changed, seen, not-checked, robot-excluded, erroring —
// runs w3newer once, and writes the report.
func expFig1(ctx context.Context, outDir string) error {
	clock := simclock.New(time.Time{})
	web := websim.New(clock)
	client := webclient.New(web)

	// A small synthetic corner of the 1995 web.
	mobile := web.Site("snapple.cs.washington.edu:600").Page("/mobile/")
	web.Evolve(mobile, 24*time.Hour, websim.AppendGenerator("Mobile and Wireless Computing", 11))
	stable := web.Site("www.research.att.com").Page("/orgs/ssr/")
	stable.Set(websim.StaticGenerator("Software Systems Research", 150, 12)(0))
	usenix := web.Site("www.usenix.org").Page("/")
	web.Evolve(usenix, 7*24*time.Hour, websim.EditGenerator("USENIX Association", 8, 13))
	yahoo := web.Site("www.yahoo.com").Page("/Computers/")
	web.Evolve(yahoo, 24*time.Hour, websim.AppendGenerator("Yahoo: Computers", 14))
	dilbert := web.Site("www.unitedmedia.com").Page("/comics/dilbert/")
	dilbert.SetDynamic(websim.ClockBody("Dilbert"))
	bulletin := web.Site("www.smartpages.example").Page("/program/")
	bulletin.Set(`<HTML><HEAD><META NAME="bulletin" CONTENT="3 talks added to the program"></HEAD>
<BODY><P>conference program listing</P></BODY></HTML>`)
	bulletin.SetNoLastModified() // CGI-style page: checked by checksum
	private := web.Site("private.example.com")
	private.SetRobots("User-agent: *\nDisallow: /\n")
	private.Page("/stats/").Set("<P>private stats</P>")
	dead := web.Site("gone.example.com").Page("/old-project/")
	dead.Set("x")
	dead.SetGone()
	web.Site("down.example.com").Page("/flaky/").Set("x")
	web.Site("down.example.com").SetTimeout(true)

	entries := []hotlist.Entry{
		{URL: "http://snapple.cs.washington.edu:600/mobile/", Title: "Mobile and Wireless Computing"},
		{URL: "http://www.research.att.com/orgs/ssr/", Title: "Software Systems Research"},
		{URL: "http://www.usenix.org/", Title: "USENIX Association"},
		{URL: "http://www.yahoo.com/Computers/", Title: "Yahoo: Computers"},
		{URL: "http://www.unitedmedia.com/comics/dilbert/", Title: "Dilbert (never checked)"},
		{URL: "http://www.smartpages.example/program/", Title: "A page with a bulletin"},
		{URL: "http://private.example.com/stats/", Title: "Robot-excluded statistics"},
		{URL: "http://gone.example.com/old-project/", Title: "A page that no longer exists"},
		{URL: "http://down.example.com/flaky/", Title: "An overloaded server"},
	}

	// The user saw everything ten days ago, then the web moved on.
	hist := hotlist.NewHistory()
	for _, e := range entries {
		hist.Visit(e.URL, clock.Now())
	}
	web.Advance(10 * 24 * time.Hour)
	// ... except Yahoo, visited again yesterday (inside its 7d rule).
	hist.Visit("http://www.yahoo.com/Computers/", clock.Now().Add(-24*time.Hour))

	cfg, err := w3config.ParseString(w3config.Table1)
	if err != nil {
		return err
	}
	tr := tracker.New(client, cfg, hist, clock)
	tr.Robots = robots.NewCache(func(ctx context.Context, url string) (int, string, error) {
		info, err := client.Get(ctx, url)
		return info.Status, info.Body, err
	}, clock)

	results := tr.Run(ctx, entries)
	for _, r := range results {
		fmt.Printf("      %-45s %-14s via %s\n", r.Entry.Title, tracker.Label(r.Status), r.Via)
	}
	sum := tracker.Summary(results)
	fmt.Printf("    summary: %d changed, %d unchanged, %d not checked, %d excluded, %d errors\n",
		sum[tracker.Changed], sum[tracker.Unchanged], sum[tracker.NotChecked],
		sum[tracker.Excluded], sum[tracker.Failed])
	report := tracker.Report(results, tracker.ReportOptions{
		SnapshotBase: "http://aide.research.att.com",
		User:         "douglis@research.att.com",
		Now:          clock.Now(),
		Prioritize:   true,
	})
	return writeArtifact(outDir, "fig1_report.html", report)
}

// expFig2 runs HtmlDiff over the two versions and writes the merged
// page, reporting the same structural elements the paper's figure shows.
func expFig2(_ context.Context, outDir string) error {
	r := htmldiff.Diff(websim.USENIXSept, websim.USENIXNov, htmldiff.Options{
		Title: "http://www.usenix.org/ (9/29/95 vs 11/3/95)",
	})
	s := r.Stats
	fmt.Printf("    tokens: %d old, %d new; %d common, %d modified, %d deleted, %d inserted\n",
		s.OldTokens, s.NewTokens, s.Common, s.Modified, s.Deleted, s.Inserted)
	fmt.Printf("    difference regions (arrow anchors): %d; change fraction %.2f\n",
		s.Differences, s.ChangeFraction)
	if err := writeArtifact(outDir, "fig2_htmldiff.html", r.HTML); err != nil {
		return err
	}

	// The reverse and only-new presentations of §5.2, for completeness.
	rev := htmldiff.Diff(websim.USENIXSept, websim.USENIXNov, htmldiff.Options{Reverse: true,
		Title: "reverse sense: old markups intact"})
	if err := writeArtifact(outDir, "fig2_reverse.html", rev.HTML); err != nil {
		return err
	}
	onlyNew := htmldiff.Diff(websim.USENIXSept, websim.USENIXNov, htmldiff.Options{Mode: htmldiff.OnlyNew,
		Title: "Draconian option: old material left out"})
	return writeArtifact(outDir, "fig2_onlynew.html", onlyNew.HTML)
}
