package tracker

import (
	"fmt"
	"html"
	"net/url"
	"sort"
	"strings"
	"time"

	"aide/internal/breaker"
	"aide/internal/sched"
)

// This file renders w3newer's HTML report (the paper's Figure 1): one
// row per hotlist entry with its change status and the three AIDE links —
// Remember, Diff, and History — that hand the URL to the snapshot
// facility (§6).

// ReportOptions configure report generation.
type ReportOptions struct {
	// SnapshotBase is the base URL of the snapshot facility; when empty
	// the Remember/Diff/History links are omitted (stand-alone w3newer).
	SnapshotBase string
	// User is the identity passed to the snapshot facility.
	User string
	// Now is the run timestamp shown in the header.
	Now time.Time
	// Prioritize sorts rows by score instead of hotlist order,
	// addressing §7's information-overload observation ("a
	// user-specified prioritization of URLs along the lines of the
	// Tapestry system").
	Prioritize bool
	// Score overrides the default priority function (higher sorts
	// first). Only used when Prioritize is set.
	Score func(Result) float64
}

// DefaultScore ranks changed pages first (most recently modified on
// top), then errors (the user should prune dead URLs), then the rest.
func DefaultScore(r Result) float64 {
	switch r.Status {
	case Changed:
		// More recent modifications score higher.
		return 3 + float64(r.LastModified.Unix())/1e12
	case Failed:
		return 2
	case Unchanged:
		return 1
	default:
		return 0
	}
}

// Report renders the run results as the Figure 1 HTML document.
func Report(results []Result, opt ReportOptions) string {
	rows := append([]Result(nil), results...)
	if opt.Prioritize {
		score := opt.Score
		if score == nil {
			score = DefaultScore
		}
		sort.SliceStable(rows, func(i, j int) bool { return score(rows[i]) > score(rows[j]) })
	}
	var sb strings.Builder
	sb.WriteString("<HTML><HEAD><TITLE>w3newer: what's new</TITLE></HEAD><BODY>\n")
	fmt.Fprintf(&sb, "<H1>What's new on your hotlist</H1>\n")
	if !opt.Now.IsZero() {
		fmt.Fprintf(&sb, "<P>Run of %s.</P>\n", opt.Now.UTC().Format(time.ANSIC))
	}
	changed := 0
	for _, r := range rows {
		if r.Status == Changed {
			changed++
		}
	}
	fmt.Fprintf(&sb, "<P>%d of %d pages have changed since you last saw them.</P>\n<HR>\n<DL>\n", changed, len(rows))
	for _, r := range rows {
		title := r.Entry.Title
		if title == "" {
			title = r.Entry.URL
		}
		fmt.Fprintf(&sb, "<DT><A HREF=\"%s\">%s</A>%s\n",
			html.EscapeString(r.Entry.URL), html.EscapeString(title), aideLinks(r, opt))
		fmt.Fprintf(&sb, "<DD>%s", statusLine(r))
		if r.Bulletin != "" {
			fmt.Fprintf(&sb, " <I>Bulletin: %s</I>", html.EscapeString(r.Bulletin))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("</DL>\n</BODY></HTML>\n")
	return sb.String()
}

// statusLine renders one row's status sentence.
func statusLine(r Result) string {
	switch r.Status {
	case Changed:
		if r.LastModified.IsZero() {
			return "<B>Changed</B> since your last visit."
		}
		return fmt.Sprintf("<B>Changed</B>: modified %s (after your last visit%s).",
			r.LastModified.UTC().Format(time.ANSIC), visitedClause(r))
	case Unchanged:
		if r.LastModified.IsZero() {
			return "Seen: no change since your last visit."
		}
		return fmt.Sprintf("Seen: last modified %s.", r.LastModified.UTC().Format(time.ANSIC))
	case NotChecked:
		return fmt.Sprintf("Not checked this run (%s).", html.EscapeString(r.Via))
	case Excluded:
		return "Not checked: excluded by the robot exclusion protocol."
	case Failed:
		msg := "unknown error"
		if r.Err != nil {
			msg = r.Err.Error()
		}
		s := fmt.Sprintf("<B>Error</B>: %s (%s).", html.EscapeString(msg), r.ErrKind)
		if r.ErrCount > 1 {
			s += fmt.Sprintf(" %d consecutive failures; consider removing this URL.", r.ErrCount)
		}
		return s
	}
	return ""
}

func visitedClause(r Result) string {
	if r.LastVisited.IsZero() {
		return "; never visited"
	}
	return " of " + r.LastVisited.UTC().Format(time.ANSIC)
}

// aideLinks renders the Remember / Diff / History links of Figure 1.
func aideLinks(r Result, opt ReportOptions) string {
	if opt.SnapshotBase == "" {
		return ""
	}
	base := strings.TrimSuffix(opt.SnapshotBase, "/")
	q := url.Values{}
	q.Set("url", r.Entry.URL)
	if opt.User != "" {
		q.Set("user", opt.User)
	}
	enc := q.Encode()
	return fmt.Sprintf(
		` &nbsp;[<A HREF="%s/remember?%s">Remember</A>] [<A HREF="%s/diff?%s">Diff</A>] [<A HREF="%s/history?%s">History</A>]`,
		base, enc, base, enc, base, enc)
}

// Summary tallies results by status, for logs and experiments.
func Summary(results []Result) sched.Counts {
	var c sched.Counts
	for _, r := range results {
		c[r.Status]++
	}
	return c
}

// Label names a verdict in w3newer's words ("not checked",
// "robot-excluded", "error"), as experiment listings and the
// tracker.check span print it; metrics use the outcome's String.
func Label(o sched.Outcome) string {
	switch o {
	case NotChecked:
		return "not checked"
	case Excluded:
		return "robot-excluded"
	case Failed:
		return "error"
	}
	return o.String()
}

// HostCounts is one host's sweep outcome, for the degradation report.
type HostCounts struct {
	// Host is the host[:port], or "" for hostless entries (file:, form:).
	Host string
	// OK counts entries answered normally (changed, unchanged,
	// threshold-skipped, excluded — anything that is not a failure).
	OK int
	// Degraded counts failures served with a Stale last-known-good
	// answer.
	Degraded int
	// Skipped counts entries not checked because the host was already
	// known bad this run.
	Skipped int
	// Failed counts hard failures with nothing to fall back on.
	Failed int
}

// HostSummary tallies a sweep per host, separating clean answers from
// degraded (stale-served), skipped (host known bad), and hard-failed
// entries — the "sweep completed degraded" report for operators. Hosts
// are returned sorted by name.
func HostSummary(results []Result) []HostCounts {
	byHost := make(map[string]*HostCounts)
	var order []string
	for _, r := range results {
		h := breaker.HostKey(r.Entry.URL)
		hc, ok := byHost[h]
		if !ok {
			hc = &HostCounts{Host: h}
			byHost[h] = hc
			order = append(order, h)
		}
		switch {
		case r.Status == Failed && r.Stale:
			hc.Degraded++
		case r.Status == Failed:
			hc.Failed++
		case r.Status == NotChecked && r.Via == "host-error":
			hc.Skipped++
		default:
			hc.OK++
		}
	}
	sort.Strings(order)
	out := make([]HostCounts, 0, len(order))
	for _, h := range order {
		out = append(out, *byHost[h])
	}
	return out
}
