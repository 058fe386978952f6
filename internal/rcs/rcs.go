// Package rcs implements a Revision Control System work-alike: an archive
// file per document holding the newest revision in full and every older
// revision as a reverse delta (an RCS-format ed script produced by
// internal/textdiff). This is the version repository behind the snapshot
// facility, mirroring the paper's use of RCS (Tichy, SPE 1985):
//
//   - a check-in of unchanged content is detected and skipped,
//   - storage cost beyond the first copy is proportional to the size of
//     the changes, and
//   - any revision can be retrieved by number or by date ("the state of
//     the page as user U last saw it").
//
// The on-disk format is a simplified trunk-only `,v` dialect: @-quoted
// strings with `@` doubled, head-first revision order, and a `noeol` flag
// so that texts without a final newline round-trip exactly.
//
// Two departures from classic RCS keep deep archives fast. Every
// CheckpointEvery-th revision is kept as full text (marked `checkpoint;`
// in its metadata, a keyword older parsers of this dialect never emitted
// but new parsers accept alongside `noeol;`), so a checkout applies a
// bounded number of ed scripts instead of one per intervening revision.
// And parsed archives are cached in a package-level LRU validated by file
// size and mtime, so the common poll cycle (stat, checkout head, check
// in) parses each archive once rather than once per operation.
package rcs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aide/internal/fsatomic"
	"aide/internal/obs"
	"aide/internal/simclock"
	"aide/internal/textdiff"
)

// ErrNoRevision is returned when a requested revision does not exist.
var ErrNoRevision = errors.New("rcs: no such revision")

// ErrNoArchive is returned when operating on an archive that has never
// had a check-in.
var ErrNoArchive = errors.New("rcs: archive does not exist")

// ErrCorrupt is returned when an archive file exists but cannot be
// parsed, or a stored delta no longer applies — the on-disk bytes are
// damaged (bit rot, torn write). Callers with a replica to fall back on
// (the snapshot facility's failover layer) match this with errors.Is to
// trigger repair instead of failing the read.
var ErrCorrupt = errors.New("rcs: archive corrupt")

// dateFormat is the RCS datestamp layout (UTC).
const dateFormat = "2006.01.02.15.04.05"

// Revision describes one stored revision of a document.
type Revision struct {
	// Num is the trunk revision number, e.g. "1.3".
	Num string
	// Date is the check-in time (UTC).
	Date time.Time
	// Author is the identity supplied at check-in.
	Author string
	// Log is the check-in log message.
	Log string
}

// revEntry is the in-memory form of one archive revision.
type revEntry struct {
	Revision
	noEOL bool
	// checkpoint marks a non-head revision stored as full text (a
	// forward checkpoint) rather than as a delta, bounding how many ed
	// scripts a checkout must apply.
	checkpoint bool
	// text is the full document for the head revision and for
	// checkpoints, and a reverse ed script (new -> old) for every other
	// revision.
	text string
}

// ErrLocked is returned when an operation conflicts with another user's
// revision lock.
var ErrLocked = errors.New("rcs: revision is locked")

// defaultCheckpointEvery is the default spacing of forward checkpoints:
// at most defaultCheckpointEvery-1 deltas separate consecutive full-text
// revisions, so a checkout applies at most that many ed scripts no matter
// how deep the archive grows.
const defaultCheckpointEvery = 8

// Archive is a single versioned document. An Archive value serialises its
// own operations; cross-process exclusion is the caller's responsibility
// (the snapshot facility holds per-URL locks around archive operations).
type Archive struct {
	path  string
	clock simclock.Clock

	// CheckpointEvery bounds the delta-chain length between full-text
	// revisions: every CheckpointEvery-th revision is kept as a forward
	// checkpoint. Zero selects the default; set before the first Checkin
	// to override (tests use small values to force dense checkpoints).
	CheckpointEvery int

	mu sync.Mutex
}

// Open returns a handle on the archive file at path. The file need not
// exist yet; it is created by the first Checkin. If clock is nil the wall
// clock is used.
func Open(path string, clock simclock.Clock) *Archive {
	if clock == nil {
		clock = simclock.Wall{}
	}
	return &Archive{path: path, clock: clock}
}

// Path returns the archive file path.
func (a *Archive) Path() string { return a.path }

// Exists reports whether the archive has at least one revision on disk.
func (a *Archive) Exists() bool {
	_, err := os.Stat(a.path)
	return err == nil
}

// Size returns the archive file size in bytes, or 0 if it does not exist.
func (a *Archive) Size() int64 {
	fi, err := os.Stat(a.path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Checkin stores text as a new head revision and returns its revision
// number. If text is byte-for-byte identical to the current head, nothing
// is written and Checkin returns the existing head number with
// changed=false — the paper relies on this to make "Remember" idempotent.
func (a *Archive) Checkin(text, author, log string) (rev string, changed bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clock.Now().UTC()

	f, err := a.load()
	switch {
	case errors.Is(err, ErrNoArchive):
		f = &archiveFile{}
	case err != nil:
		return "", false, err
	}

	// RCS lock discipline: another user's lock blocks the check-in; the
	// author's own lock is consumed by it (as `ci` does).
	lockReleased := false
	for user := range f.locks {
		if user != quoteWord(author) && user != author {
			return "", false, fmt.Errorf("%w by %s", ErrLocked, user)
		}
		delete(f.locks, user)
		lockReleased = true
	}

	if len(f.revs) > 0 {
		headText := f.revs[0].text
		if headText == text {
			if lockReleased {
				if err := a.store(f); err != nil {
					return "", false, err
				}
			}
			return f.revs[0].Num, false, nil
		}
		// Count the deltas between the old head and the next full-text
		// revision below it. If converting the old head to a delta would
		// stretch that chain past the checkpoint spacing, keep its full
		// text as a forward checkpoint instead; otherwise replace it with
		// a reverse delta that rebuilds it from the new text.
		deltas := 0
		for i := 1; i < len(f.revs) && !f.revs[i].checkpoint; i++ {
			deltas++
		}
		if k := a.checkpointEvery(); deltas >= k-1 {
			f.revs[0].checkpoint = true
		} else {
			oldLines := textdiff.Lines(headText)
			newLines := textdiff.Lines(text)
			f.revs[0].text = textdiff.EdScript(newLines, oldLines)
		}
	}

	num := "1.1"
	if len(f.revs) > 0 {
		num = nextRev(f.revs[0].Num)
	}
	head := revEntry{
		Revision: Revision{Num: num, Date: now, Author: author, Log: log},
		noEOL:    text != "" && !textdiff.HasTrailingNewline(text),
		text:     text,
	}
	f.revs = append([]revEntry{head}, f.revs...)
	if err := a.store(f); err != nil {
		return "", false, err
	}
	return num, true, nil
}

// Head returns the newest revision number.
func (a *Archive) Head() (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.load()
	if err != nil {
		return "", err
	}
	return f.revs[0].Num, nil
}

// Checkout returns the text of the given revision. An empty rev selects
// the head.
func (a *Archive) Checkout(rev string) (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.load()
	if err != nil {
		return "", err
	}
	return f.checkout(rev)
}

// CheckoutAtDate returns the newest revision checked in at or before t,
// mirroring `co -d`. It returns the text and the revision number.
func (a *Archive) CheckoutAtDate(t time.Time) (text, rev string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.load()
	if err != nil {
		return "", "", err
	}
	for _, r := range f.revs { // head-first: first hit is the newest
		if !r.Date.After(t) {
			text, err := f.checkout(r.Num)
			return text, r.Num, err
		}
	}
	return "", "", fmt.Errorf("%w: none at or before %s", ErrNoRevision, t.UTC().Format(dateFormat))
}

// RevTime pairs a revision number with its check-in instant — the
// lightweight row of the revision index that datetime negotiation
// (Memento TimeGates) queries, deliberately without author/log strings
// or any revision text.
type RevTime struct {
	// Num is the trunk revision number, e.g. "1.3".
	Num string
	// Date is the check-in time (UTC).
	Date time.Time
}

// Dates returns every revision's number and check-in time, newest
// first, without checking out any text. It reads through the
// parsed-archive cache on the non-cloning path — the clone load()
// makes for mutating callers would cost a revs-slice copy per index
// query, and a TimeGate negotiation needs only these two columns.
func (a *Archive) Dates() ([]RevTime, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.loadReadOnly()
	if err != nil {
		return nil, err
	}
	out := make([]RevTime, len(f.revs))
	for i, r := range f.revs {
		out[i] = RevTime{Num: r.Num, Date: r.Date}
	}
	return out, nil
}

// Log returns all revisions, newest first, like rlog.
func (a *Archive) Log() ([]Revision, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.load()
	if err != nil {
		return nil, err
	}
	out := make([]Revision, len(f.revs))
	for i, r := range f.revs {
		out[i] = r.Revision
	}
	return out, nil
}

// Lock takes an RCS-style soft lock on the head revision for user, the
// way `co -l` reserves the right to make the next check-in. It fails
// with ErrLocked while another user holds a lock. Re-locking by the same
// user refreshes the lock to the current head.
func (a *Archive) Lock(user string) (rev string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.load()
	if err != nil {
		return "", err
	}
	u := quoteWord(user)
	for holder := range f.locks {
		if holder != u {
			return "", fmt.Errorf("%w by %s", ErrLocked, holder)
		}
	}
	if f.locks == nil {
		f.locks = map[string]string{}
	}
	head := f.revs[0].Num
	f.locks[u] = head
	if err := a.store(f); err != nil {
		return "", err
	}
	return head, nil
}

// Unlock releases user's lock (`rcs -u`). Releasing a lock one does not
// hold is an error.
func (a *Archive) Unlock(user string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.load()
	if err != nil {
		return err
	}
	u := quoteWord(user)
	if _, held := f.locks[u]; !held {
		return fmt.Errorf("rcs: %s holds no lock", user)
	}
	delete(f.locks, u)
	return a.store(f)
}

// LockedBy reports the current lock holder, if any.
func (a *Archive) LockedBy() (user, rev string, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.load()
	if err != nil {
		return "", "", false
	}
	for u, r := range f.locks {
		return u, r, true
	}
	return "", "", false
}

// Prune drops the oldest revisions so that at most keep remain — the
// §4.2 resource-utilization lever ("The facility could also impose a
// limit"). Reverse deltas chain newest-to-oldest, so truncating the tail
// leaves every kept revision reconstructible. It returns the number of
// revisions dropped.
func (a *Archive) Prune(keep int) (dropped int, err error) {
	if keep < 1 {
		return 0, fmt.Errorf("rcs: must keep at least one revision")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := a.load()
	if err != nil {
		return 0, err
	}
	if len(f.revs) <= keep {
		return 0, nil
	}
	dropped = len(f.revs) - keep
	f.revs = f.revs[:keep]
	if err := a.store(f); err != nil {
		return 0, err
	}
	return dropped, nil
}

// DiffRevs returns a unified diff between two revisions, like rcsdiff.
func (a *Archive) DiffRevs(oldRev, newRev string) (string, error) {
	oldText, err := a.Checkout(oldRev)
	if err != nil {
		return "", err
	}
	newText, err := a.Checkout(newRev)
	if err != nil {
		return "", err
	}
	name := filepath.Base(a.path)
	return textdiff.Unified(
		fmt.Sprintf("%s %s", name, oldRev),
		fmt.Sprintf("%s %s", name, newRev),
		textdiff.Lines(oldText), textdiff.Lines(newText), 3), nil
}

// nextRev increments the minor component of a trunk revision number.
func nextRev(num string) string {
	i := strings.LastIndexByte(num, '.')
	minor, err := strconv.Atoi(num[i+1:])
	if err != nil {
		// Corrupt numbers cannot occur through this package's API; fall
		// back to restarting the minor sequence rather than panicking.
		return num + ".1"
	}
	return num[:i+1] + strconv.Itoa(minor+1)
}

// compareRev orders trunk revision numbers ("1.10" > "1.9").
func compareRev(x, y string) int {
	px := strings.Split(x, ".")
	py := strings.Split(y, ".")
	for i := 0; i < len(px) && i < len(py); i++ {
		a, _ := strconv.Atoi(px[i])
		b, _ := strconv.Atoi(py[i])
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return len(px) - len(py)
}

// archiveFile is the parsed archive.
type archiveFile struct {
	revs []revEntry // newest first
	// locks maps a user to the revision they hold locked (RCS-style
	// soft locks; at most one per user).
	locks map[string]string
}

// checkout rebuilds the text of rev by applying reverse deltas down the
// trunk, starting from the nearest full-text revision (the head or a
// forward checkpoint) at or above rev. Checkpoint spacing bounds the
// number of ed scripts applied regardless of archive depth.
func (f *archiveFile) checkout(rev string) (string, error) {
	if len(f.revs) == 0 {
		return "", ErrNoArchive
	}
	if rev == "" {
		rev = f.revs[0].Num
	}
	idx := -1
	for i, r := range f.revs {
		if r.Num == rev {
			idx = i
			break
		}
	}
	if idx < 0 {
		return "", fmt.Errorf("%w: %s", ErrNoRevision, rev)
	}
	start := 0
	for i := idx; i >= 1; i-- {
		if f.revs[i].checkpoint {
			start = i
			break
		}
	}
	if start > 0 {
		obs.Default.Counter("rcs.checkpoint_hits").Inc()
	}
	lines := textdiff.Lines(f.revs[start].text)
	for i := start + 1; i <= idx; i++ {
		var err error
		lines, err = textdiff.ApplyEd(lines, f.revs[i].text)
		if err != nil {
			return "", fmt.Errorf("%w: delta for %s: %v", ErrCorrupt, f.revs[i].Num, err)
		}
	}
	text := textdiff.Join(lines)
	if f.revs[idx].noEOL {
		text = strings.TrimSuffix(text, "\n")
	}
	return text, nil
}

// checkpointEvery returns the effective checkpoint spacing.
func (a *Archive) checkpointEvery() int {
	if a.CheckpointEvery >= 1 {
		return a.CheckpointEvery
	}
	return defaultCheckpointEvery
}

// clone returns a deep-enough copy of f that callers may mutate without
// affecting f: the revs slice and locks map are copied; the strings they
// hold are immutable.
func (f *archiveFile) clone() *archiveFile {
	c := &archiveFile{revs: append([]revEntry(nil), f.revs...)}
	if f.locks != nil {
		c.locks = make(map[string]string, len(f.locks))
		for u, r := range f.locks {
			c.locks[u] = r
		}
	}
	return c
}

// --- parsed-archive cache -------------------------------------------------

// archCache is a package-level LRU of parsed archives keyed by path,
// validated against the file's size and mtime on every use. Snapshot
// facilities open a fresh Archive handle per operation, so the cache must
// outlive individual handles to be useful. Entries are canonical and
// never mutated; load returns clones.
var archCache = struct {
	sync.Mutex
	m    map[string]*archCacheEntry
	tick int64 // LRU clock
}{m: make(map[string]*archCacheEntry)}

// archCacheLimit bounds the number of cached parsed archives.
const archCacheLimit = 64

type archCacheEntry struct {
	f     *archiveFile
	size  int64
	mtime time.Time
	used  int64
}

// cacheGet returns the canonical parsed archive for path if the cached
// entry still matches the file's size and mtime.
func cacheGet(path string, fi os.FileInfo) *archiveFile {
	archCache.Lock()
	defer archCache.Unlock()
	e, ok := archCache.m[path]
	if !ok || e.size != fi.Size() || !e.mtime.Equal(fi.ModTime()) {
		return nil
	}
	archCache.tick++
	e.used = archCache.tick
	return e.f
}

// cachePut stores the canonical parsed archive for path, evicting the
// least recently used entry when the cache is full.
func cachePut(path string, f *archiveFile, fi os.FileInfo) {
	archCache.Lock()
	defer archCache.Unlock()
	archCache.tick++
	archCache.m[path] = &archCacheEntry{f: f, size: fi.Size(), mtime: fi.ModTime(), used: archCache.tick}
	if len(archCache.m) <= archCacheLimit {
		return
	}
	var oldest string
	var oldestUsed int64
	for p, e := range archCache.m {
		if oldest == "" || e.used < oldestUsed {
			oldest, oldestUsed = p, e.used
		}
	}
	delete(archCache.m, oldest)
}

// load parses the archive file, consulting the parsed-archive cache. The
// returned value is a private clone the caller may mutate.
func (a *Archive) load() (*archiveFile, error) {
	f, cached, err := a.loadShared()
	if err != nil {
		return nil, err
	}
	if cached {
		return f.clone(), nil
	}
	return f, nil
}

// loadReadOnly returns the parsed archive without cloning. The result
// may be the canonical cached value: callers must treat it as
// immutable. This is the index-query fast path — a revision-datetime
// listing per TimeGate negotiation must not copy the whole revs slice.
func (a *Archive) loadReadOnly() (*archiveFile, error) {
	f, _, err := a.loadShared()
	return f, err
}

// loadShared stats, consults the cache, and parses on a miss. cached
// reports whether the returned value is the canonical cache entry
// (shared, immutable) rather than a fresh private parse.
func (a *Archive) loadShared() (f *archiveFile, cached bool, err error) {
	fi, err := os.Stat(a.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, ErrNoArchive
		}
		return nil, false, err
	}
	if f := cacheGet(a.path, fi); f != nil {
		obs.Default.Counter("rcs.cache.hits").Inc()
		return f, true, nil
	}
	obs.Default.Counter("rcs.cache.misses").Inc()
	data, err := os.ReadFile(a.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, ErrNoArchive
		}
		return nil, false, err
	}
	f, err = parseArchive(string(data))
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Cache only if the file is unchanged since the pre-read stat, so a
	// concurrent replace between stat and read cannot pin stale data to
	// the new size/mtime.
	if fi2, err2 := os.Stat(a.path); err2 == nil && fi2.Size() == fi.Size() && fi2.ModTime().Equal(fi.ModTime()) {
		cachePut(a.path, f.clone(), fi)
	}
	return f, false, nil
}

// ArchiveMode is the file mode of every archive: owner-only, because
// archives hold page bodies fetched on a user's behalf, saved form
// results among them.
const ArchiveMode os.FileMode = 0o600

// store atomically rewrites the archive file (mode ArchiveMode) and
// refreshes the cache. fsatomic makes the archive and its directory
// entry durable before the check-in returns.
func (a *Archive) store(f *archiveFile) error {
	if err := os.MkdirAll(filepath.Dir(a.path), 0o755); err != nil {
		return err
	}
	err := fsatomic.WriteFunc(a.path, ArchiveMode, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		writeArchive(bw, f)
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	if fi, err := os.Stat(a.path); err == nil {
		cachePut(a.path, f.clone(), fi)
	}
	return nil
}

// --- on-disk format -------------------------------------------------------

// serializeArchive renders the archive in the simplified `,v` dialect.
// Kept as the string-returning form for tests; store streams through
// writeArchive directly.
func serializeArchive(f *archiveFile) string {
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	writeArchive(bw, f)
	bw.Flush()
	return sb.String()
}

// writeArchive streams the archive in the simplified `,v` dialect. Errors
// are sticky in the bufio.Writer and surface at Flush, so the body can
// write unconditionally.
func writeArchive(bw *bufio.Writer, f *archiveFile) {
	head := ""
	if len(f.revs) > 0 {
		head = f.revs[0].Num
	}
	fmt.Fprintf(bw, "head\t%s;\n", head)
	bw.WriteString("access;\nsymbols;\nlocks")
	users := make([]string, 0, len(f.locks))
	for u := range f.locks {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		fmt.Fprintf(bw, "\n\t%s:%s", quoteWord(u), f.locks[u])
	}
	bw.WriteString("; strict;\n")
	bw.WriteString("comment\t@# @;\n\n")
	for i, r := range f.revs {
		next := ""
		if i+1 < len(f.revs) {
			next = f.revs[i+1].Num
		}
		fmt.Fprintf(bw, "%s\n", r.Num)
		fmt.Fprintf(bw, "date\t%s;\tauthor %s;\tstate Exp;", r.Date.UTC().Format(dateFormat), quoteWord(r.Author))
		if r.noEOL {
			bw.WriteString("\tnoeol;")
		}
		if r.checkpoint {
			bw.WriteString("\tcheckpoint;")
		}
		bw.WriteString("\n")
		fmt.Fprintf(bw, "next\t%s;\n\n", next)
	}
	bw.WriteString("\ndesc\n@@\n\n")
	for _, r := range f.revs {
		fmt.Fprintf(bw, "\n%s\nlog\n@", r.Num)
		writeEscapedAt(bw, r.Log)
		bw.WriteString("@\ntext\n@")
		writeEscapedAt(bw, r.text)
		bw.WriteString("@\n")
	}
}

// writeEscapedAt writes s with every '@' doubled, without building an
// intermediate escaped copy of (potentially large) revision texts.
func writeEscapedAt(bw *bufio.Writer, s string) {
	for {
		i := strings.IndexByte(s, '@')
		if i < 0 {
			bw.WriteString(s)
			return
		}
		bw.WriteString(s[:i+1])
		bw.WriteByte('@')
		s = s[i+1:]
	}
}

// quoteWord makes an author safe to embed unquoted (RCS authors are simple
// words; ours are email-ish identifiers).
func quoteWord(s string) string {
	if s == "" {
		return "unknown"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '.', r == '-', r == '_', r == '@', r == '+':
			return r
		}
		return '_'
	}, s)
}

// parseArchive parses the simplified `,v` dialect. It is deliberately
// strict: a malformed archive is an error, never silently partial data.
func parseArchive(src string) (*archiveFile, error) {
	p := &parser{src: src}
	f := &archiveFile{}

	// Admin section.
	if _, err := p.expectKeyword("head"); err != nil {
		return nil, err
	}
	headNum := p.wordUntilSemi()
	meta := map[string]revEntry{}
	var order []string

	for {
		p.skipSpace()
		word := p.peekWord()
		switch word {
		case "locks":
			p.takeWord()
			for {
				p.skipSpace()
				if p.pos < len(p.src) && p.src[p.pos] == ';' {
					p.pos++
					break
				}
				entry := p.takeWord()
				if entry == "" {
					return nil, errors.New("rcs: unterminated locks list")
				}
				user, rev, ok := strings.Cut(entry, ":")
				if !ok || !isRevNum(rev) {
					return nil, fmt.Errorf("rcs: malformed lock entry %q", entry)
				}
				if f.locks == nil {
					f.locks = map[string]string{}
				}
				f.locks[user] = rev
			}
			continue
		case "access", "symbols", "comment", "strict":
			p.skipStatement()
			continue
		case "desc":
			p.takeWord()
			if _, err := p.atString(); err != nil {
				return nil, fmt.Errorf("rcs: bad desc: %v", err)
			}
		case "":
			return nil, errors.New("rcs: unexpected end of archive header")
		default:
			if !isRevNum(word) {
				return nil, fmt.Errorf("rcs: unexpected token %q in header", word)
			}
			// Revision metadata block.
			num := p.takeWord()
			e := revEntry{Revision: Revision{Num: num}}
			if _, err := p.expectKeyword("date"); err != nil {
				return nil, err
			}
			dateStr := p.wordUntilSemi()
			d, err := time.Parse(dateFormat, dateStr)
			if err != nil {
				return nil, fmt.Errorf("rcs: bad date %q: %v", dateStr, err)
			}
			e.Date = d
			for {
				p.skipSpace()
				kw := p.peekWord()
				if kw == "author" {
					p.takeWord()
					e.Author = p.wordUntilSemi()
				} else if kw == "state" || kw == "branches" {
					p.skipStatement()
				} else if kw == "noeol" {
					p.takeWord()
					p.wordUntilSemi()
					e.noEOL = true
				} else if kw == "checkpoint" {
					p.takeWord()
					p.wordUntilSemi()
					e.checkpoint = true
				} else if kw == "next" {
					p.takeWord()
					p.wordUntilSemi() // chain is implied by order; value unused
					break
				} else {
					return nil, fmt.Errorf("rcs: unexpected token %q in revision %s", kw, num)
				}
			}
			meta[num] = e
			order = append(order, num)
			continue
		}
		break
	}

	// Text sections: "<num> log @...@ text @...@".
	for {
		p.skipSpace()
		word := p.peekWord()
		if word == "" {
			break
		}
		if !isRevNum(word) {
			return nil, fmt.Errorf("rcs: unexpected token %q in body", word)
		}
		num := p.takeWord()
		e, ok := meta[num]
		if !ok {
			return nil, fmt.Errorf("rcs: body for unknown revision %s", num)
		}
		if _, err := p.expectKeyword("log"); err != nil {
			return nil, err
		}
		logStr, err := p.atString()
		if err != nil {
			return nil, fmt.Errorf("rcs: bad log for %s: %v", num, err)
		}
		e.Log = logStr
		if _, err := p.expectKeyword("text"); err != nil {
			return nil, err
		}
		text, err := p.atString()
		if err != nil {
			return nil, fmt.Errorf("rcs: bad text for %s: %v", num, err)
		}
		e.text = text
		meta[num] = e
	}

	for _, num := range order {
		f.revs = append(f.revs, meta[num])
	}
	if len(f.revs) == 0 {
		return nil, errors.New("rcs: archive has no revisions")
	}
	if f.revs[0].Num != headNum {
		return nil, fmt.Errorf("rcs: head %s is not first revision %s", headNum, f.revs[0].Num)
	}
	// Revisions must be strictly descending on the trunk.
	if !sort.SliceIsSorted(f.revs, func(i, j int) bool {
		return compareRev(f.revs[i].Num, f.revs[j].Num) > 0
	}) {
		return nil, errors.New("rcs: revisions out of order")
	}
	return f, nil
}

// parser is a minimal cursor over the archive source.
type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// peekWord returns the next whitespace/semicolon-delimited word without
// consuming it.
func (p *parser) peekWord() string {
	p.skipSpace()
	i := p.pos
	for i < len(p.src) && !isDelim(p.src[i]) {
		i++
	}
	return p.src[p.pos:i]
}

func (p *parser) takeWord() string {
	w := p.peekWord()
	p.pos += len(w)
	return w
}

// wordUntilSemi reads a word and consumes the trailing semicolon.
func (p *parser) wordUntilSemi() string {
	w := p.takeWord()
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ';' {
		p.pos++
	}
	return w
}

// skipStatement consumes everything through the next semicolon.
func (p *parser) skipStatement() {
	for p.pos < len(p.src) && p.src[p.pos] != ';' {
		p.pos++
	}
	if p.pos < len(p.src) {
		p.pos++
	}
}

func (p *parser) expectKeyword(kw string) (string, error) {
	got := p.takeWord()
	if got != kw {
		return "", fmt.Errorf("rcs: expected %q, found %q", kw, got)
	}
	return got, nil
}

// atString parses an @-quoted string with @@ unescaping.
func (p *parser) atString() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '@' {
		return "", errors.New("missing opening @")
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c != '@' {
			sb.WriteByte(c)
			p.pos++
			continue
		}
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '@' {
			sb.WriteByte('@')
			p.pos += 2
			continue
		}
		p.pos++
		return sb.String(), nil
	}
	return "", errors.New("unterminated @-string")
}

func isDelim(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', ';':
		return true
	}
	return false
}

func isRevNum(s string) bool {
	if s == "" {
		return false
	}
	dot := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] >= '0' && s[i] <= '9':
		case s[i] == '.':
			dot = true
		default:
			return false
		}
	}
	return dot
}
