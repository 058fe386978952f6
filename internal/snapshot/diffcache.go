package snapshot

// The rendered-diff cache and its pre-warmer. §4.2 observes that "many
// users who have seen versions N and N+1 of a page could retrieve
// HtmlDiff(pageN, pageN+1) with a single invocation"; at serving QPS
// the stronger version holds: nobody should wait for that invocation at
// all. Entries are keyed by (url, revA, revB) and held in a
// byte-bounded LRU; when a check-in lands a new revision, the facility
// invalidates the page's entries (any archive rewrite — check-in,
// prune, failover repair, scrub, import — may change what a revision
// pair renders to) and asynchronously re-renders the hot pairs: latest
// vs previous, and latest vs the checking-in user's last-viewed
// baseline.
//
// Invalidation and pre-warming race by construction: a pre-warm task
// reads the archive, renders, and only then inserts. Each URL carries a
// generation number, bumped by every invalidation; a task captures the
// generation before it reads and the insert is dropped if the
// generation moved, so a check-in arriving mid-render can never leave a
// stale entry behind (diffcache.prewarm.stale counts the drops).

import (
	"container/list"
	"fmt"
	"io"
	"strings"
	"sync"

	"aide/internal/htmldiff"
	"aide/internal/rcs"
)

// diffKey identifies one cached rendering: the page and the compared
// revision pair.
type diffKey struct {
	url            string
	oldRev, newRev string
}

// cacheGen is a cache-coherence stamp: the global epoch (bumped by
// whole-cache invalidations) and the per-URL generation (bumped by
// per-page invalidations). An insert guarded by a stale stamp is
// silently dropped.
type cacheGen struct {
	epoch uint64
	url   uint64
}

// diffEntry is one LRU node's payload.
type diffEntry struct {
	key  diffKey
	html string
}

// entryOverhead approximates the bookkeeping bytes an entry costs
// beyond its HTML: map and list nodes, the key strings.
const entryOverhead = 128

// diffCache is the byte-bounded LRU of rendered HtmlDiff pages.
type diffCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // *diffEntry; front = most recently used
	entries  map[diffKey]*list.Element
	gens     map[string]uint64
	epoch    uint64
	hits     int
}

func newDiffCache(maxBytes int64) *diffCache {
	return &diffCache{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  map[diffKey]*list.Element{},
		gens:     map[string]uint64{},
	}
}

// entrySize is what one entry charges against the byte bound.
func entrySize(key diffKey, html string) int64 {
	return int64(len(html) + len(key.url) + len(key.oldRev) + len(key.newRev) + entryOverhead)
}

// setMax resizes the byte bound and evicts down to it.
func (c *diffCache) setMax(maxBytes int64) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = maxBytes
	return c.evictLocked()
}

// get returns the cached rendering and promotes it to most recent.
func (c *diffCache) get(key diffKey) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return "", false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*diffEntry).html, true
}

// contains reports presence without promoting or counting a hit — the
// pre-warmer's "already cached?" probe.
func (c *diffCache) contains(key diffKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// gen returns the key's current coherence stamp.
func (c *diffCache) gen(url string) cacheGen {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheGen{epoch: c.epoch, url: c.gens[url]}
}

// putIfCurrent inserts html under key unless the URL was invalidated
// after g was captured. An entry too large for a quarter of the cache
// is not stored at all — one giant page must not wipe the working set.
func (c *diffCache) putIfCurrent(key diffKey, html string, g cacheGen) (stored bool, evicted int) {
	size := entrySize(key, html)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != g.epoch || c.gens[key.url] != g.url {
		return false, 0
	}
	if c.maxBytes > 0 && size > c.maxBytes/4 {
		return false, 0
	}
	if el, ok := c.entries[key]; ok {
		// Same pair re-rendered (e.g. on-demand miss racing a pre-warm):
		// keep the newer bytes.
		c.bytes += size - entrySize(key, el.Value.(*diffEntry).html)
		el.Value.(*diffEntry).html = html
		c.lru.MoveToFront(el)
		return true, c.evictLocked()
	}
	c.entries[key] = c.lru.PushFront(&diffEntry{key: key, html: html})
	c.bytes += size
	return true, c.evictLocked()
}

// evictLocked drops least-recently-used entries until the byte bound
// holds. Caller holds mu.
func (c *diffCache) evictLocked() (evicted int) {
	for c.bytes > c.maxBytes && c.lru.Len() > 0 {
		el := c.lru.Back()
		e := el.Value.(*diffEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= entrySize(e.key, e.html)
		evicted++
	}
	return evicted
}

// invalidateURL drops every entry for url, bumps its generation, and
// returns the new stamp — the one a pre-warm scheduled by the same
// rewrite must capture.
func (c *diffCache) invalidateURL(url string) (removed int, g cacheGen) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[url]++
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*diffEntry)
		if e.key.url == url {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.bytes -= entrySize(e.key, e.html)
			removed++
		}
		el = next
	}
	return removed, cacheGen{epoch: c.epoch, url: c.gens[url]}
}

// invalidateAll empties the cache and bumps the epoch — the coarse
// hammer for rewrites identified by file rather than URL (scrub
// repairs, shard imports).
func (c *diffCache) invalidateAll() (removed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed = c.lru.Len()
	c.lru.Init()
	c.entries = map[diffKey]*list.Element{}
	c.bytes = 0
	c.epoch++
	return removed
}

// stats reports the cache's occupancy.
func (c *diffCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.bytes
}

// --- facility integration ------------------------------------------------------

// DiffCacheHits reports how many diff requests were served from cache.
func (f *Facility) DiffCacheHits() int {
	f.diffCache.mu.Lock()
	defer f.diffCache.mu.Unlock()
	return f.diffCache.hits
}

// SetDiffCacheMax resizes the rendered-diff cache's byte bound
// (n <= 0 restores DefaultDiffCacheMax). Excess entries are evicted
// immediately.
func (f *Facility) SetDiffCacheMax(n int64) {
	if n <= 0 {
		n = DefaultDiffCacheMax
	}
	f.noteDiffCacheChange(f.diffCache.setMax(n))
}

// noteDiffCacheChange folds an eviction count and the cache's occupancy
// into the metrics registry.
func (f *Facility) noteDiffCacheChange(evicted int) {
	m := f.metrics()
	if evicted > 0 {
		m.Counter("snapshot.diffcache.evictions").Add(int64(evicted))
	}
	entries, bytes := f.diffCache.stats()
	m.Gauge("snapshot.diffcache.size").Set(int64(entries))
	m.Gauge("snapshot.diffcache.bytes").Set(bytes)
}

// invalidateDiffCache drops a page's cached renderings after an archive
// rewrite and returns the coherence stamp for any pre-warm the rewrite
// schedules.
func (f *Facility) invalidateDiffCache(pageURL string) cacheGen {
	removed, g := f.diffCache.invalidateURL(pageURL)
	if removed > 0 {
		f.metrics().Counter("snapshot.diffcache.invalidated").Add(int64(removed))
		f.noteDiffCacheChange(0)
	}
	return g
}

// invalidateDiffCacheAll drops everything — for rewrites that know the
// file touched but not the URL (scrub repair, import).
func (f *Facility) invalidateDiffCacheAll() {
	if removed := f.diffCache.invalidateAll(); removed > 0 {
		f.metrics().Counter("snapshot.diffcache.invalidated").Add(int64(removed))
		f.noteDiffCacheChange(0)
	}
}

// --- pre-warming ---------------------------------------------------------------

// DefaultPrewarmWorkers is the pre-warm pool size snapshotd's -prewarm
// flag defaults to.
const DefaultPrewarmWorkers = 2

// EnablePrewarm starts the facility's pre-warm pool: after every
// changed check-in, up to workers goroutines render the page's hot
// revision pairs into the diff cache so the first viewer of a new
// revision gets a cache hit. workers <= 0 disables pre-warming.
func (f *Facility) EnablePrewarm(workers int) {
	f.prewarmMu.Lock()
	defer f.prewarmMu.Unlock()
	if workers <= 0 {
		f.prewarmSem = nil
		return
	}
	f.prewarmSem = make(chan struct{}, workers)
}

// WaitPrewarm blocks until every scheduled pre-warm task has finished —
// the deterministic settling point for tests and shutdown.
func (f *Facility) WaitPrewarm() {
	f.prewarmWG.Wait()
}

// schedulePrewarm queues asynchronous renders of the hot pairs for a
// page that just checked in newRev: (prevRev, newRev) and
// (baselineRev, newRev). g must be the stamp returned by the check-in's
// invalidation, so any later rewrite kills the insert.
func (f *Facility) schedulePrewarm(pageURL, newRev, prevRev, baselineRev string, g cacheGen) {
	f.prewarmMu.Lock()
	sem := f.prewarmSem
	f.prewarmMu.Unlock()
	if sem == nil || newRev == "" {
		return
	}
	var pairs [][2]string
	if prevRev != "" && prevRev != newRev {
		pairs = append(pairs, [2]string{prevRev, newRev})
	}
	if baselineRev != "" && baselineRev != newRev && baselineRev != prevRev {
		pairs = append(pairs, [2]string{baselineRev, newRev})
	}
	m := f.metrics()
	for _, p := range pairs {
		key := diffKey{url: pageURL, oldRev: p[0], newRev: p[1]}
		m.Counter("diffcache.prewarm.scheduled").Inc()
		f.prewarmWG.Add(1)
		go func() {
			defer f.prewarmWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f.prewarmPair(key, g)
		}()
	}
}

// prewarmPair renders one revision pair into the cache unless someone
// beat it there or an invalidation overtook it.
func (f *Facility) prewarmPair(key diffKey, g cacheGen) {
	m := f.metrics()
	if f.diffCache.contains(key) {
		m.Counter("diffcache.prewarm.skipped").Inc()
		return
	}
	prep, err := f.prepareDiff(key.url, key.oldRev, key.newRev)
	if err != nil {
		m.Counter("diffcache.prewarm.errors").Inc()
		return
	}
	var sb strings.Builder
	prep.RenderTo(&sb)
	if hook := f.prewarmHook; hook != nil {
		hook() // test seam: a rewrite arriving mid-prewarm
	}
	stored, evicted := f.diffCache.putIfCurrent(key, sb.String(), g)
	f.noteDiffCacheChange(evicted)
	if stored {
		m.Counter("diffcache.prewarm.computed").Inc()
	} else {
		m.Counter("diffcache.prewarm.stale").Inc()
	}
}

// prepareDiff checks out both revisions and aligns them — the shared
// expensive half of the on-demand and pre-warm paths. Rendering is the
// caller's business: on-demand streams it, pre-warm buffers it.
func (f *Facility) prepareDiff(pageURL, oldRev, newRev string) (*htmldiff.Prepared, error) {
	var oldText, newText string
	err := f.readArchive(pageURL, func(a *rcs.Archive) error {
		var cerr error
		if oldText, cerr = a.Checkout(oldRev); cerr != nil {
			return cerr
		}
		newText, cerr = a.Checkout(newRev)
		return cerr
	})
	if err != nil {
		return nil, err
	}
	opt := f.DiffOptions
	opt.Title = fmt.Sprintf("%s (%s vs %s)", pageURL, oldRev, newRev)
	start := f.clock.Now()
	prep := htmldiff.Prepare(oldText, newText, opt)
	f.metrics().Histogram("snapshot.diff.duration", nil).ObserveDuration(f.clock.Now().Sub(start))
	return prep, nil
}

// DiffStream is a prepared diff response: the comparison metadata plus
// a Render function that writes the HTML to w exactly once. For cache
// hits Render streams the stored bytes in bounded chunks; for misses it
// streams a fresh rendering and, if the client accepted all of it,
// inserts the result into the cache (guarded by the coherence stamp
// captured before the archive was read).
type DiffStream struct {
	// DiffResult carries OldRev/NewRev/Stats/Cached. HTML is the cached
	// page on a cache hit and empty otherwise; either way Render writes
	// the bytes.
	DiffResult
	// Render writes the page. It returns the first write error; the
	// comparison itself cannot fail once the stream is handed out.
	Render func(w io.Writer) error
}

// DiffRevsStream is DiffRevs' streaming face: the §4.2-cached
// comparison of two archived revisions, without materialising the page
// on the serving path.
func (f *Facility) DiffRevsStream(pageURL, oldRev, newRev string) (*DiffStream, error) {
	key := diffKey{url: pageURL, oldRev: oldRev, newRev: newRev}
	m := f.metrics()
	if html, ok := f.diffCache.get(key); ok {
		m.Counter("snapshot.diffcache.hits").Inc()
		return &DiffStream{
			DiffResult: DiffResult{HTML: html, OldRev: oldRev, NewRev: newRev, Cached: true},
			Render: func(w io.Writer) error {
				return writeStringChunks(w, html)
			},
		}, nil
	}
	m.Counter("snapshot.diffcache.misses").Inc()
	g := f.diffCache.gen(pageURL) // before the read: a rewrite during render kills the insert
	prep, err := f.prepareDiff(pageURL, oldRev, newRev)
	if err != nil {
		return nil, err
	}
	ds := &DiffStream{
		DiffResult: DiffResult{OldRev: oldRev, NewRev: newRev, Stats: prep.Stats()},
	}
	ds.Render = func(w io.Writer) error {
		tee := &cacheTee{dst: w, limit: int(f.diffCache.maxBytes / 4)}
		err := prep.RenderTo(tee)
		if err == nil && !tee.over {
			_, evicted := f.diffCache.putIfCurrent(key, tee.buf.String(), g)
			f.noteDiffCacheChange(evicted)
		}
		return err
	}
	return ds, nil
}

// cacheTee copies a streamed rendering into a side buffer for cache
// insertion, giving up (over=true) once the page exceeds the cache's
// per-entry bound so an enormous page costs no extra memory.
type cacheTee struct {
	dst   io.Writer
	buf   strings.Builder
	limit int
	over  bool
}

func (t *cacheTee) Write(p []byte) (int, error) {
	if !t.over {
		if t.limit > 0 && t.buf.Len()+len(p) > t.limit {
			t.over = true
			t.buf.Reset()
		} else {
			t.buf.Write(p)
		}
	}
	return t.dst.Write(p)
}

// writeStringChunks writes s in bounded chunks through w's string fast
// path when it has one — cache hits stream like fresh renders.
func writeStringChunks(w io.Writer, s string) error {
	const chunk = 32 << 10
	for off := 0; off < len(s); off += chunk {
		end := off + chunk
		if end > len(s) {
			end = len(s)
		}
		if _, err := io.WriteString(w, s[off:end]); err != nil {
			return err
		}
	}
	return nil
}
