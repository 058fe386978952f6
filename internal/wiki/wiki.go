// Package wiki implements WebWeaver, the collaborative system of the
// paper's §1: "Within AT&T, a clone of WikiWikiWeb, called WebWeaver,
// stores its own version archive and uses HtmlDiff to show users the
// differences from earlier versions of a page."
//
// Pages are editable documents whose every revision is checked into the
// snapshot facility's archive. A RecentChanges page sorts documents by
// modification date, and — the AIDE improvement over a plain wiki —
// each reader gets a personalised HtmlDiff against the version *they*
// last read, catching the §1 failure mode: "content can be modified
// anywhere on the page, and those changes may be too subtle to notice."
package wiki

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"

	"aide/internal/htmldoc"
	"aide/internal/rcs"
	"aide/internal/simclock"
	"aide/internal/snapshot"
)

// ErrNoPage is returned for pages that have never been written.
var ErrNoPage = errors.New("wiki: no such page")

// pageScheme namespaces wiki documents inside the snapshot repository.
const pageScheme = "wiki:"

// wikiWord matches WikiWikiWeb-style page names: two or more capitalised
// runs, e.g. PatternLanguage or FrontPage.
var wikiWord = regexp.MustCompile(`^[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]+)+$`)

// IsPageName reports whether name is a legal wiki page name.
func IsPageName(name string) bool { return wikiWord.MatchString(name) }

// Change is one row of RecentChanges.
type Change struct {
	// Page is the document name.
	Page string
	// Rev is the newest revision.
	Rev string
	// Author made the newest revision.
	Author string
	// Date is the newest revision's check-in time.
	Date time.Time
	// Revisions is the total number of stored versions.
	Revisions int
}

// Wiki is a WebWeaver instance over a snapshot facility.
type Wiki struct {
	fac   *snapshot.Facility
	clock simclock.Clock
}

// New returns a wiki storing its archive in fac.
func New(fac *snapshot.Facility, clock simclock.Clock) *Wiki {
	if clock == nil {
		clock = simclock.Wall{}
	}
	return &Wiki{fac: fac, clock: clock}
}

// pageURL is the document's key in the snapshot repository.
func pageURL(name string) string { return pageScheme + name }

// ErrEditConflict is returned when a save is based on a revision that is
// no longer the head: someone else edited the page meanwhile.
var ErrEditConflict = errors.New("wiki: edit conflict")

// Edit stores a new revision of page authored by author, and records
// that the author has seen it. Writing identical content is a no-op.
// Edit is last-write-wins; use EditFrom for conflict detection.
func (w *Wiki) Edit(author, page, body string) (rev string, err error) {
	if !IsPageName(page) {
		return "", fmt.Errorf("wiki: %q is not a WikiWord page name", page)
	}
	// Wiki check-ins are local disk writes; entity tracking (the only
	// thing a check-in's ctx bounds) is never enabled on a wiki's
	// facility, so Background is correct here. The batch path holds the
	// per-URL lock, so simultaneous saves get distinct revisions.
	res, errs := w.fac.CheckinBatch(context.Background(), author,
		[]snapshot.BatchItem{{URL: pageURL(page), Body: body}})
	if errs[0] != nil {
		return "", errs[0]
	}
	return res[0].Rev, nil
}

// EditFrom stores a new revision only if baseRev is still the head —
// the wiki's optimistic concurrency control. A concurrent editor's save
// surfaces as ErrEditConflict, and the caller can show the author what
// changed underneath them (HtmlDiff between baseRev and the head). An
// empty baseRev asserts the page is being created fresh.
func (w *Wiki) EditFrom(author, page, body, baseRev string) (rev string, err error) {
	if !IsPageName(page) {
		return "", fmt.Errorf("wiki: %q is not a WikiWord page name", page)
	}
	revs, _, err := w.fac.History("", pageURL(page))
	switch {
	case errors.Is(err, rcs.ErrNoArchive):
		if baseRev != "" {
			return "", fmt.Errorf("%w: page vanished (base %s)", ErrEditConflict, baseRev)
		}
	case err != nil:
		return "", err
	default:
		if revs[0].Num != baseRev {
			return "", fmt.Errorf("%w: head is %s, your edit was based on %s",
				ErrEditConflict, revs[0].Num, orNone(baseRev))
		}
	}
	return w.Edit(author, page, body)
}

func orNone(rev string) string {
	if rev == "" {
		return "a new page"
	}
	return rev
}

// ConflictDiff renders what changed between an editor's base revision
// and the current head, for the conflict page.
func (w *Wiki) ConflictDiff(page, baseRev string) (snapshot.DiffResult, error) {
	revs, _, err := w.fac.History("", pageURL(page))
	if err != nil {
		return snapshot.DiffResult{}, err
	}
	return w.fac.DiffRevs(pageURL(page), baseRev, revs[0].Num)
}

// Read returns the current text and revision of page, and records that
// reader (when non-empty) has now seen it.
func (w *Wiki) Read(reader, page string) (body, rev string, err error) {
	body, err = w.fac.Checkout(pageURL(page), "")
	if err != nil {
		if errors.Is(err, rcs.ErrNoArchive) {
			return "", "", fmt.Errorf("%w: %s", ErrNoPage, page)
		}
		return "", "", err
	}
	revs, _, err := w.fac.History("", pageURL(page))
	if err != nil {
		return "", "", err
	}
	rev = revs[0].Num
	if reader != "" {
		if err := w.fac.MarkSeen(reader, pageURL(page), rev); err != nil {
			return "", "", err
		}
	}
	return body, rev, nil
}

// ReadAt returns the text of page as of a revision ("" = head) without
// updating any reader state.
func (w *Wiki) ReadAt(page, rev string) (string, error) {
	body, err := w.fac.Checkout(pageURL(page), rev)
	if errors.Is(err, rcs.ErrNoArchive) {
		return "", fmt.Errorf("%w: %s", ErrNoPage, page)
	}
	return body, err
}

// Pages lists all documents, sorted by name.
func (w *Wiki) Pages() ([]string, error) {
	urls, err := w.fac.ArchivedURLs()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, u := range urls {
		if name, ok := strings.CutPrefix(u, pageScheme); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// RecentChanges lists documents newest-change-first, the wiki's shared
// activity view.
func (w *Wiki) RecentChanges() ([]Change, error) {
	names, err := w.Pages()
	if err != nil {
		return nil, err
	}
	changes := make([]Change, 0, len(names))
	for _, name := range names {
		revs, _, err := w.fac.History("", pageURL(name))
		if err != nil {
			return nil, err
		}
		head := revs[0]
		changes = append(changes, Change{
			Page: name, Rev: head.Num, Author: head.Author,
			Date: head.Date, Revisions: len(revs),
		})
	}
	sort.SliceStable(changes, func(i, j int) bool {
		if !changes[i].Date.Equal(changes[j].Date) {
			return changes[i].Date.After(changes[j].Date)
		}
		return changes[i].Page < changes[j].Page
	})
	return changes, nil
}

// UnreadChanges reports, for each page, whether reader is behind its
// head revision — the per-reader view AIDE adds on top of a plain
// RecentChanges.
func (w *Wiki) UnreadChanges(reader string) ([]Change, error) {
	all, err := w.RecentChanges()
	if err != nil {
		return nil, err
	}
	var out []Change
	for _, c := range all {
		_, seen, err := w.fac.History(reader, pageURL(c.Page))
		if err != nil {
			return nil, err
		}
		if !seen[c.Rev] {
			out = append(out, c)
		}
	}
	return out, nil
}

// DiffForReader renders the HtmlDiff between the version reader last saw
// and the current page. ErrNeverSaved surfaces for readers who have
// never opened the page.
func (w *Wiki) DiffForReader(reader, page string) (snapshot.DiffResult, error) {
	revs, seen, err := w.fac.History(reader, pageURL(page))
	if err != nil {
		if errors.Is(err, rcs.ErrNoArchive) {
			return snapshot.DiffResult{}, fmt.Errorf("%w: %s", ErrNoPage, page)
		}
		return snapshot.DiffResult{}, err
	}
	var lastSeen string
	for _, r := range revs { // newest first
		if seen[r.Num] {
			lastSeen = r.Num
			break
		}
	}
	if lastSeen == "" {
		return snapshot.DiffResult{}, snapshot.ErrNeverSaved
	}
	return w.fac.DiffRevs(pageURL(page), lastSeen, revs[0].Num)
}

// History exposes a page's revision log (newest first) and the reader's
// seen set.
func (w *Wiki) History(reader, page string) ([]rcs.Revision, map[string]bool, error) {
	revs, seen, err := w.fac.History(reader, pageURL(page))
	if errors.Is(err, rcs.ErrNoArchive) {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoPage, page)
	}
	return revs, seen, err
}

// LinkWikiWords rewrites bare WikiWord words in body into page links
// (<A HREF="/view?page=Name">Name</A>), skipping words already inside
// anchors. This is the render-time half of WikiWikiWeb's linking.
func LinkWikiWords(body string) string {
	toks := htmldoc.Tokenize(body)
	var sb strings.Builder
	inAnchor := 0
	for _, tok := range toks {
		text := renderToken(tok, &inAnchor)
		sb.WriteString(text)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func renderToken(tok htmldoc.Token, inAnchor *int) string {
	sep := " "
	if tok.Pre {
		sep = "\n"
	}
	var sb strings.Builder
	for i, it := range tok.Items {
		if i > 0 {
			sb.WriteString(sep)
		}
		switch {
		case it.Kind == htmldoc.Markup && it.Name == "A":
			*inAnchor++
			sb.WriteString(it.Raw)
		case it.Kind == htmldoc.Markup && it.Name == "/A":
			if *inAnchor > 0 {
				*inAnchor--
			}
			sb.WriteString(it.Raw)
		case it.Kind == htmldoc.Word && *inAnchor == 0 && IsPageName(trimPunct(it.Raw)):
			name := trimPunct(it.Raw)
			sb.WriteString(strings.Replace(it.Raw, name,
				fmt.Sprintf("<A HREF=\"/view?page=%s\">%s</A>", name, name), 1))
		default:
			sb.WriteString(it.Raw)
		}
	}
	return sb.String()
}

// trimPunct strips trailing sentence punctuation from a word.
func trimPunct(w string) string {
	return strings.TrimRight(w, ".,;:!?)\"'")
}
