// Package snapshot implements AIDE's external versioning service (§4):
// an archive of web-page versions kept outside both the content provider
// and the client, built on the RCS work-alike in internal/rcs.
//
// A user "remembers" a page: the facility retrieves it, checks it into
// the page's archive (a no-op if unchanged), and records in the user's
// control file which version that user has now seen. Later the user asks
// for the differences since the version they last saved, rendered by
// HtmlDiff, or for the page's full version history.
//
// System issues handled per §4.2: per-URL and per-user locking
// (internal/lockmgr), bounded caching of HtmlDiff output (many users who
// saw versions N and N+1 share one invocation), and the CGI keepalive
// trickle (in server.go).
package snapshot

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aide/internal/faultfs"
	"aide/internal/formreg"
	"aide/internal/fsatomic"
	"aide/internal/htmldiff"
	"aide/internal/lockmgr"
	"aide/internal/obs"
	"aide/internal/rcs"
	"aide/internal/simclock"
	"aide/internal/webclient"
)

// ErrNeverSaved is returned when a user asks for differences on a page
// they have never remembered.
var ErrNeverSaved = errors.New("snapshot: page never saved by this user")

// Facility is the snapshot service instance.
type Facility struct {
	store  *Store
	client *webclient.Client
	clock  simclock.Clock
	locks  *lockmgr.Manager

	// DiffOptions are the HtmlDiff defaults applied when callers pass a
	// zero Options.
	DiffOptions htmldiff.Options
	// Forms, when non-nil, lets the facility archive and diff saved
	// POST services via their form:<id> pseudo-URLs (§8.4).
	Forms *formreg.Registry
	// Metrics receives the check-in/delta/diff-latency metrics;
	// obs.Default when nil.
	Metrics *obs.Registry
	// Faults, when non-nil, injects disk faults into scrub reads and
	// import/repair writes (chaos tests); nil reads/writes normally.
	Faults *faultfs.Injector
	// Failover, when non-nil, fetches missing or corrupt files from a
	// healthy replica — the repair source for scrub and failover reads.
	// On a replicated leader this is the facility's Replicator.
	Failover FileFetcher

	diffCache *diffCache
	entityOpt EntityTrackingOptions
	ledger    *checksumLedger

	prewarmMu   sync.Mutex
	prewarmSem  chan struct{}
	prewarmWG   sync.WaitGroup
	prewarmHook func() // test seam: runs between a pre-warm render and its insert

	repairMu    sync.Mutex
	repairSlots chan struct{}
}

// metrics returns the facility's registry (obs.Default when unset).
func (f *Facility) metrics() *obs.Registry {
	if f.Metrics != nil {
		return f.Metrics
	}
	return obs.Default
}

// New creates (or reopens) a facility rooted at dir over a one-shard
// store. If clock is nil the wall clock is used. When the
// SNAPSHOT_TEST_SHARDS environment variable is set to N > 1, New builds
// an N-shard store instead — the hook the CI matrix uses to run every
// suite against the sharded layout.
func New(dir string, client *webclient.Client, clock simclock.Clock) (*Facility, error) {
	shards, _ := strconv.Atoi(os.Getenv("SNAPSHOT_TEST_SHARDS"))
	return NewSharded(dir, shards, client, clock)
}

// NewSharded creates (or reopens) a facility over an N-shard store
// (shards <= 1 means one shard: the flat layout).
func NewSharded(dir string, shards int, client *webclient.Client, clock simclock.Clock) (*Facility, error) {
	st, err := NewStore(dir, shards)
	if err != nil {
		return nil, err
	}
	if clock == nil {
		clock = simclock.Wall{}
	}
	return &Facility{
		store:     st,
		client:    client,
		clock:     clock,
		locks:     lockmgr.New(filepath.Join(dir, "locks")),
		diffCache: newDiffCache(DefaultDiffCacheMax),
		ledger:    newChecksumLedger(filepath.Join(dir, "scrub")),
	}, nil
}

// Root returns the facility's data directory.
func (f *Facility) Root() string { return f.store.Root() }

// Store returns the facility's storage layer.
func (f *Facility) Store() *Store { return f.store }

// Shards reports how many shards partition the facility's store.
func (f *Facility) Shards() int { return f.store.Shards() }

// ShardOf maps a URL to the shard holding its archive.
func (f *Facility) ShardOf(pageURL string) int { return f.store.ShardOf(pageURL) }

// Rebalance migrates files the store's ring no longer places where they
// sit (after a shard-count change, or adopting a flat repository). It
// holds a store-wide lock against concurrent rebalances; run it before
// serving traffic. Conflicting copies are set aside, never overwritten,
// and reported as a *ConflictError (see Store.Rebalance).
func (f *Facility) Rebalance() (moved int, err error) {
	unlock, err := f.locks.Lock("store:rebalance")
	if err != nil {
		return 0, err
	}
	defer unlock()
	moved, err = f.store.Rebalance(f.quarantine)
	f.metrics().Counter("shard.rebalance.moved").Add(int64(moved))
	return moved, err
}

// archive returns the RCS archive handle for a URL.
func (f *Facility) archive(pageURL string) *rcs.Archive {
	return rcs.Open(f.store.ArchivePath(pageURL), f.clock)
}

// archiveAt returns the RCS handle for an archive file path — used by
// manifest building, which enumerates files rather than URLs.
func (f *Facility) archiveAt(path string) *rcs.Archive {
	return rcs.Open(path, f.clock)
}

// RememberResult reports a Remember operation.
type RememberResult struct {
	// Rev is the revision now current for the user.
	Rev string
	// Changed is false when the fetched page was identical to the
	// archive head (the RCS ci no-op case).
	Changed bool
	// FirstTime is true when this was the page's first check-in ever.
	FirstTime bool
}

// Remember fetches url under ctx and checks it into the archive on
// behalf of user, recording the version in the user's control file.
// Holding the per-URL lock across fetch+check-in serialises
// simultaneous users (§4.2).
func (f *Facility) Remember(ctx context.Context, user, pageURL string) (RememberResult, error) {
	unlock, err := f.locks.Lock(f.store.LockKey(pageURL))
	if err != nil {
		return RememberResult{}, err
	}
	defer unlock()

	info, err := f.fetchLive(ctx, pageURL)
	if err != nil {
		return RememberResult{}, err
	}
	return f.RememberContent(ctx, user, pageURL, info.Body)
}

// RememberContent checks in content supplied by the caller; ctx bounds
// the entity-checksum fetches that a changed check-in may trigger. It
// takes no lock: the caller serialises check-ins of one URL, as
// Remember and CheckinBatch do by holding the per-URL lock. Two
// unserialised check-ins of one page can both commit the same revision
// number, so concurrent callers go through CheckinBatch.
func (f *Facility) RememberContent(ctx context.Context, user, pageURL, body string) (RememberResult, error) {
	ctx, span := obs.StartSpan(ctx, "snapshot.checkin")
	span.SetAttr("url", pageURL)
	defer span.End()
	m := f.metrics()
	m.Counter("snapshot.checkins").Inc()
	if f.store.Shards() > 1 {
		m.CounterVec("shard.checkins", "shard").With(strconv.Itoa(f.store.ShardOf(pageURL))).Inc()
	}
	arch := f.archive(pageURL)
	first := !arch.Exists()
	// The pre-warmer's hot pairs: the head this check-in supersedes, and
	// the revision this user last viewed — both read before the archive
	// and control file move on.
	var prevRev string
	if !first {
		prevRev, _ = arch.Head()
	}
	var baselineRev string
	if user != "" {
		if seen := f.seenVersions(user, pageURL); len(seen) > 0 {
			baselineRev = seen[len(seen)-1]
		}
	}
	rev, changed, err := arch.Checkin(body, user, "checked in via AIDE snapshot")
	if err != nil {
		return RememberResult{}, err
	}
	if first {
		// Persist the name→URL reverse map for overflow-hashed archive
		// names (no-op for names that decode on their own).
		if err := f.store.NoteURL(pageURL); err != nil {
			return RememberResult{}, err
		}
		base := strings.TrimSuffix(filepath.Base(f.store.ArchivePath(pageURL)), archiveSuffix)
		if p, err := f.store.Place(KindURL, base+urlSuffix); err == nil {
			f.recordChecksumPath(KindURL, p)
		}
	}
	if changed || first {
		// Record the rewritten archive's checksum for the scrubber,
		// under the per-URL lock our callers hold.
		f.recordChecksumPath(KindArchive, f.store.ArchivePath(pageURL))
	}
	if changed {
		m.Counter("snapshot.checkins.changed").Inc()
		m.Counter("snapshot.delta.bytes").Add(int64(len(body)))
		obs.Logger().Debug("snapshot check-in", "url", pageURL, "rev", rev, "bytes", len(body), "first", first)
		// A new revision rewrites the archive: cached renderings for the
		// page are stale. Invalidate first, then pre-warm the hot pairs
		// under the post-invalidation generation so a later rewrite can
		// still cancel the inserts.
		g := f.invalidateDiffCache(pageURL)
		f.schedulePrewarm(pageURL, rev, prevRev, baselineRev, g)
	}
	if user != "" {
		if err := f.markSeen(user, pageURL, rev); err != nil {
			return RememberResult{}, err
		}
	}
	if changed && f.entityOpt.Enabled {
		if err := f.snapshotEntities(ctx, pageURL, body, rev); err != nil {
			return RememberResult{}, err
		}
	}
	return RememberResult{Rev: rev, Changed: changed, FirstTime: first}, nil
}

// DiffResult is the outcome of a difference request.
type DiffResult struct {
	// HTML is the HtmlDiff presentation.
	HTML string
	// OldRev and NewRev identify the versions compared. NewRev is
	// "live" when the comparison is against the current page.
	OldRev, NewRev string
	// Stats summarises the comparison.
	Stats htmldiff.Stats
	// Cached is true when the output came from the HtmlDiff cache.
	Cached bool
}

// DiffSinceSaved compares the version the user last remembered against
// the live page — the report's "Diff" link ("display the changes in a
// page since it was last saved away by the user", §6). ctx bounds the
// live fetch.
func (f *Facility) DiffSinceSaved(ctx context.Context, user, pageURL string) (DiffResult, error) {
	ds, err := f.DiffSinceSavedStream(ctx, user, pageURL)
	if err != nil {
		return DiffResult{}, err
	}
	return materialize(ds), nil
}

// DiffSinceSavedStream is DiffSinceSaved without the buffering: the
// comparison is prepared up front, the rendering streams to the
// handler's writer. Live comparisons are never cached — the right-hand
// side has no revision identity.
func (f *Facility) DiffSinceSavedStream(ctx context.Context, user, pageURL string) (*DiffStream, error) {
	seen := f.seenVersions(user, pageURL)
	if len(seen) == 0 {
		return nil, ErrNeverSaved
	}
	oldRev := seen[len(seen)-1]
	var oldText string
	err := f.readArchive(pageURL, func(a *rcs.Archive) error {
		var cerr error
		oldText, cerr = a.Checkout(oldRev)
		return cerr
	})
	if err != nil {
		return nil, err
	}
	info, err := f.fetchLive(ctx, pageURL)
	if err != nil {
		return nil, err
	}
	opt := f.DiffOptions
	opt.Title = pageURL
	start := f.clock.Now()
	prep := htmldiff.Prepare(oldText, info.Body, opt)
	f.metrics().Histogram("snapshot.diff.duration", nil).ObserveDuration(f.clock.Now().Sub(start))
	return &DiffStream{
		DiffResult: DiffResult{OldRev: oldRev, NewRev: "live", Stats: prep.Stats()},
		Render:     prep.RenderTo,
	}, nil
}

// DiffRevs compares two archived revisions, caching the rendered output:
// "many users who have seen versions N and N+1 of a page could retrieve
// HtmlDiff(pageN, pageN+1) with a single invocation" (§4.2). Buffered
// wrapper over DiffRevsStream for callers that want the whole page.
func (f *Facility) DiffRevs(pageURL, oldRev, newRev string) (DiffResult, error) {
	ds, err := f.DiffRevsStream(pageURL, oldRev, newRev)
	if err != nil {
		return DiffResult{}, err
	}
	if ds.Cached {
		return ds.DiffResult, nil // the cached page, not a copy of it
	}
	return materialize(ds), nil
}

// materialize renders a stream into its DiffResult.
func materialize(ds *DiffStream) DiffResult {
	var sb strings.Builder
	ds.Render(&sb) // a Builder never fails
	r := ds.DiffResult
	r.HTML = sb.String()
	return r
}

// History returns the page's revision log (newest first) and the set of
// revisions this user has seen.
func (f *Facility) History(user, pageURL string) (revs []rcs.Revision, seen map[string]bool, err error) {
	err = f.readArchive(pageURL, func(a *rcs.Archive) error {
		var lerr error
		revs, lerr = a.Log()
		return lerr
	})
	if err != nil {
		return nil, nil, err
	}
	seen = make(map[string]bool)
	for _, r := range f.seenVersions(user, pageURL) {
		seen[r] = true
	}
	return revs, seen, nil
}

// Checkout returns the archived text of a revision ("" = head).
func (f *Facility) Checkout(pageURL, rev string) (string, error) {
	var text string
	err := f.readArchive(pageURL, func(a *rcs.Archive) error {
		var cerr error
		text, cerr = a.Checkout(rev)
		return cerr
	})
	return text, err
}

// CheckoutAtDate returns the archived text as of an instant, the CGI
// "time travel" interface of §2.2.
func (f *Facility) CheckoutAtDate(pageURL string, t time.Time) (string, string, error) {
	var text, rev string
	err := f.readArchive(pageURL, func(a *rcs.Archive) error {
		var cerr error
		text, rev, cerr = a.CheckoutAtDate(t)
		return cerr
	})
	return text, rev, err
}

// ArchivedURLs lists every URL with an archive, sorted.
func (f *Facility) ArchivedURLs() ([]string, error) {
	return f.store.ArchivedURLs()
}

// StorageStats reports archive disk usage, the §7 measurements.
type StorageStats struct {
	// URLs is the number of archived URLs.
	URLs int
	// TotalBytes is the summed archive file size.
	TotalBytes int64
	// PerURL lists each archive's size, descending.
	PerURL []URLSize
}

// URLSize pairs a URL with its archive size.
type URLSize struct {
	URL   string
	Bytes int64
}

// MeanBytes returns the average archive size per URL.
func (s StorageStats) MeanBytes() float64 {
	if s.URLs == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.URLs)
}

// PruneResult reports one archive's pruning outcome.
type PruneResult struct {
	URL     string
	Dropped int
}

// Prune limits every archive to at most keep revisions, dropping the
// oldest — the §4.2 resource-utilization control. Per-URL locks are
// held across each rewrite. On a sharded store the shards are pruned in
// parallel, one worker each; results come back sorted by URL.
func (f *Facility) Prune(keep int) ([]PruneResult, error) {
	pruneShard := func(urls []string) ([]PruneResult, error) {
		var out []PruneResult
		for _, u := range urls {
			unlock, err := f.locks.Lock(f.store.LockKey(u))
			if err != nil {
				return out, err
			}
			dropped, err := f.archive(u).Prune(keep)
			if err == nil && dropped > 0 {
				// The archive was rewritten: refresh its checksum
				// while the lock still protects it, and drop cached
				// diffs that referenced the pruned revisions.
				f.recordChecksumPath(KindArchive, f.store.ArchivePath(u))
				f.invalidateDiffCache(u)
			}
			unlock()
			if err != nil {
				return out, err
			}
			if dropped > 0 {
				out = append(out, PruneResult{URL: u, Dropped: dropped})
			}
		}
		return out, nil
	}

	shards := f.store.Shards()
	if shards <= 1 {
		urls, err := f.ArchivedURLs()
		if err != nil {
			return nil, err
		}
		return pruneShard(urls)
	}
	var wg sync.WaitGroup
	outs := make([][]PruneResult, shards)
	errs := make([]error, shards)
	for i := 0; i < shards; i++ {
		urls, err := f.store.ShardURLs(i)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int, urls []string) {
			defer wg.Done()
			outs[i], errs[i] = pruneShard(urls)
		}(i, urls)
	}
	wg.Wait()
	var out []PruneResult
	for i := 0; i < shards; i++ {
		out = append(out, outs[i]...)
		if errs[i] != nil {
			return out, errs[i]
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out, nil
}

// Storage scans the repository and reports the §7 numbers.
func (f *Facility) Storage() (StorageStats, error) {
	urls, err := f.ArchivedURLs()
	if err != nil {
		return StorageStats{}, err
	}
	stats := StorageStats{URLs: len(urls)}
	for _, u := range urls {
		size := f.archive(u).Size()
		stats.TotalBytes += size
		stats.PerURL = append(stats.PerURL, URLSize{URL: u, Bytes: size})
	}
	sort.Slice(stats.PerURL, func(i, j int) bool { return stats.PerURL[i].Bytes > stats.PerURL[j].Bytes })
	return stats, nil
}

// fetchLive retrieves the current content of a URL under ctx: a GET for
// pages, a replayed POST for form:<id> pseudo-URLs.
func (f *Facility) fetchLive(ctx context.Context, pageURL string) (webclient.PageInfo, error) {
	var info webclient.PageInfo
	var err error
	if f.Forms != nil && formreg.IsFormURL(pageURL) {
		info, err = f.Forms.Invoke(ctx, f.client, pageURL)
	} else {
		info, err = f.client.Get(ctx, pageURL)
	}
	if err != nil {
		return info, fmt.Errorf("snapshot: retrieving %s: %w", pageURL, err)
	}
	if kind := webclient.Classify(info.Status, nil); kind != webclient.OK {
		return info, fmt.Errorf("snapshot: retrieving %s: HTTP %d (%s)", pageURL, info.Status, kind)
	}
	return info, nil
}

// --- per-user control files ---------------------------------------------------

// userControl is the persistent per-user record: for each URL, the
// ordered list of revisions the user has checked in or viewed. This is
// the paper's "set of version numbers retained for each <user,URL>
// combination", kept outside RCS.
type userControl struct {
	Versions map[string][]string `json:"versions"`
}

func (f *Facility) userFile(user string) string {
	return f.store.UserPath(user)
}

// loadUser reads a user's control file ({} when absent). The empty
// user never has one — markSeen only writes for named users — so the
// anonymous read path skips the file probe entirely.
func (f *Facility) loadUser(user string) (userControl, error) {
	uc := userControl{Versions: map[string][]string{}}
	if user == "" {
		return uc, nil
	}
	data, err := os.ReadFile(f.userFile(user))
	if err != nil {
		if os.IsNotExist(err) {
			return uc, nil
		}
		return uc, err
	}
	if err := json.Unmarshal(data, &uc); err != nil {
		return uc, fmt.Errorf("snapshot: corrupt control file for %s: %v", user, err)
	}
	if uc.Versions == nil {
		uc.Versions = map[string][]string{}
	}
	return uc, nil
}

// markSeen appends rev to the user's version set for url (idempotent on
// the latest entry), under the per-user lock.
func (f *Facility) markSeen(user, pageURL, rev string) error {
	unlock, err := f.locks.Lock("user:" + user)
	if err != nil {
		return err
	}
	defer unlock()
	uc, err := f.loadUser(user)
	if err != nil {
		return err
	}
	vs := uc.Versions[pageURL]
	if len(vs) == 0 || vs[len(vs)-1] != rev {
		uc.Versions[pageURL] = append(vs, rev)
	}
	data, err := json.MarshalIndent(uc, "", "  ")
	if err != nil {
		return err
	}
	if err := fsatomic.WriteFile(f.userFile(user), data, 0o644); err != nil {
		return err
	}
	f.recordChecksum(KindUser, filepath.Base(f.userFile(user)), data)
	return nil
}

// MarkSeen records in the user's control file that the user has seen
// rev of pageURL ("" = the current head). The archive is not touched,
// so a revision checked in meanwhile stays the head, unseen.
func (f *Facility) MarkSeen(user, pageURL, rev string) error {
	if rev == "" {
		err := f.readArchive(pageURL, func(a *rcs.Archive) error {
			var herr error
			rev, herr = a.Head()
			return herr
		})
		if err != nil {
			return err
		}
	}
	return f.markSeen(user, pageURL, rev)
}

// seenVersions returns the user's version list for url (oldest first).
func (f *Facility) seenVersions(user, pageURL string) []string {
	uc, err := f.loadUser(user)
	if err != nil {
		return nil
	}
	return uc.Versions[pageURL]
}

// UserURLs lists the URLs a user has remembered, sorted.
func (f *Facility) UserURLs(user string) []string {
	uc, err := f.loadUser(user)
	if err != nil {
		return nil
	}
	urls := make([]string, 0, len(uc.Versions))
	for u := range uc.Versions {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	return urls
}

// --- bulk check-ins ------------------------------------------------------------

// BatchItem is one page of a bulk check-in.
type BatchItem struct {
	// URL is the page's location.
	URL string
	// Body is the content to check in.
	Body string
}

// CheckinBatch checks in a set of pages shard-parallel: items are
// partitioned by the shard that owns them and one worker per shard
// drains its partition serially (per-URL locks still held per item), so
// bulk archival scales with the shard count instead of serialising on
// one directory. Results and errors are indexed like items.
func (f *Facility) CheckinBatch(ctx context.Context, user string, items []BatchItem) ([]RememberResult, []error) {
	results := make([]RememberResult, len(items))
	errs := make([]error, len(items))
	byShard := make(map[int][]int)
	for i, it := range items {
		s := f.store.ShardOf(it.URL)
		byShard[s] = append(byShard[s], i)
	}
	var wg sync.WaitGroup
	for _, idxs := range byShard {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				it := items[i]
				unlock, err := f.locks.Lock(f.store.LockKey(it.URL))
				if err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = f.RememberContent(ctx, user, it.URL, it.Body)
				unlock()
			}
		}(idxs)
	}
	wg.Wait()
	return results, errs
}

// ShardStat is one shard's archive population, the /debug/shards row.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Archives is the number of archived URLs in the shard.
	Archives int `json:"archives"`
	// Bytes is the summed size of the shard's archive files.
	Bytes int64 `json:"bytes"`
}

// ShardStats reports per-shard archive counts and sizes (one row for a
// one-shard store), and keeps the shard.archives/bytes{shard} gauges
// current.
func (f *Facility) ShardStats() ([]ShardStat, error) {
	out := make([]ShardStat, f.store.Shards())
	archives := f.metrics().GaugeVec("shard.archives", "shard")
	sizes := f.metrics().GaugeVec("shard.bytes", "shard")
	for i := range out {
		out[i].Shard = i
		urls, err := f.store.ShardURLs(i)
		if err != nil {
			return nil, err
		}
		out[i].Archives = len(urls)
		for _, u := range urls {
			out[i].Bytes += f.archive(u).Size()
		}
		if f.store.Shards() > 1 {
			archives.With(strconv.Itoa(i)).Set(int64(out[i].Archives))
			sizes.With(strconv.Itoa(i)).Set(out[i].Bytes)
		}
	}
	return out, nil
}

// --- HtmlDiff output cache ------------------------------------------------------

// DefaultDiffCacheMax is the rendered-diff cache's byte bound when the
// caller does not configure one (snapshotd's -diffcache-max flag). The
// LRU itself lives in diffcache.go.
const DefaultDiffCacheMax = 32 << 20
