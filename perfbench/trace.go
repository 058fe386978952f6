package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call the traced replay made into a layer. Spans of
// one replayed operation share the operation's root span as ancestor.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for the single-goroutine replay. With
// on=false it records nothing, so the same calls run untraced for the
// overhead comparison.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if !t.on {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, renaming it when name is not empty (a diff span
// learns whether it hit the cache only once the call returns).
func (t *tracer) end(id int, name string) {
	if id == 0 {
		return
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	if name != "" {
		s.Name = name
	}
}

// do runs fn inside a span called name.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id, "")
}

// selfUs returns, per span name, every span's self time in
// microseconds: its duration minus the part its child spans cover.
func (t *tracer) selfUs() map[string][]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// totalUs returns, per span name, every span's whole duration in
// microseconds.
func (t *tracer) totalUs() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

func (t *tracer) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTimes is what the traced replay measured besides the spans.
type layerTimes struct {
	tr *tracer

	remember, checkin []float64 // µs, pairwise: the same write through both
	checkinBytes      []float64 // archive bytes written per check-in
	tokens            []float64 // tokens per tokenized page
	renderBytes       []float64
	linksBytes        []float64
	overheadPct       float64 // traced replay over untraced replay, in percent
}

// measureOverhead times the same idempotent calls untraced and traced:
// one discarded warm round, then five of each, alternating. It records
// how much longer the fastest traced round took than the fastest
// untraced one; the traced rounds' spans are dropped.
func (lt *layerTimes) measureOverhead(calls []func()) {
	var plain, traced []float64
	kept := len(lt.tr.spans)
	defer func() { lt.tr.spans = lt.tr.spans[:kept] }()
	for round := 0; round < 11; round++ {
		lt.tr.on = round%2 == 0
		start := time.Now()
		for _, c := range calls {
			c()
		}
		switch d := time.Since(start).Seconds(); {
		case round == 0:
		case lt.tr.on:
			traced = append(traced, d)
		default:
			plain = append(plain, d)
		}
	}
	lt.tr.on = true
	sort.Float64s(plain)
	sort.Float64s(traced)
	lt.overheadPct = 100 * (traced[0]/plain[0] - 1)
}

// perLayer assembles the per-layer metrics: span self times from the
// traced replay, counter ratios from the measured window.
func perLayer(o *outcome, lt *layerTimes) map[string]metric {
	self := lt.tr.selfUs()
	total := lt.tr.totalUs()
	med := func(name string) float64 { return median(self[name]) }
	c := o.counters
	diffs := c["htmldiff.diffs"]
	hits, misses := c["snapshot.diffcache.hits"], c["snapshot.diffcache.misses"]
	rhits, rmisses := c["rcs.cache.hits"], c["rcs.cache.misses"]
	var rememberSelf []float64
	for i := range lt.remember {
		rememberSelf = append(rememberSelf, lt.remember[i]-lt.checkin[i])
	}
	// The in-process twin of the client's operation: the workload's own
	// span when it names one, else every "op." root span.
	opUs := total[o.opSpan]
	if o.opSpan == "" {
		for name, vs := range total {
			if strings.HasPrefix(name, "op.") {
				opUs = append(opUs, vs...)
			}
		}
	}
	sort.Float64s(opUs)
	sortedOps := append([]float64(nil), o.opMs...)
	sort.Float64s(sortedOps)
	share := o.clientShare(ncpu())
	saturated := 0.0
	if share > 0.5 {
		saturated = 1
	}
	return map[string]metric{
		"server.cpu_ms_per_op":                       {1000 * ratio(o.programCPU, o.programOps), "ms"},
		"http.overhead_ms":                           {percentile(sortedOps, 0.5) - percentile(opUs, 0.5)/1e3, "ms"},
		"client.cpu_share":                           {share, "ratio"},
		"client.saturated":                           {saturated, "flag"},
		"store.archive_path_us":                      {med("store.archive_path"), "us"},
		"snapshot.diff.hit_us":                       {med("snapshot.diff.hit"), "us"},
		"snapshot.diff.miss_us":                      {med("snapshot.diff.miss"), "us"},
		"snapshot.diffcache.hit_ratio":               {ratio(hits, hits+misses), "ratio"},
		"snapshot.diffcache.evictions_per_op":        {ratio(c["snapshot.diffcache.evictions"], o.reads+o.writes), "count"},
		"snapshot.diffcache.invalidations_per_write": {ratio(c["snapshot.diffcache.invalidated"], o.writes), "count"},
		"snapshot.prewarm.computed_per_write":        {ratio(c["diffcache.prewarm.computed"], o.writes), "count"},
		"snapshot.revision_index_us":                 {med("snapshot.revision_index"), "us"},
		"snapshot.remember_us":                       {median(lt.remember), "us"},
		"snapshot.remember_self_us":                  {median(rememberSelf), "us"},
		"rcs.checkout_us":                            {med("rcs.checkout"), "us"},
		"rcs.checkpoint_hits_per_op":                 {ratio(c["rcs.checkpoint_hits"], o.reads+o.writes), "count"},
		"rcs.dates_us":                               {med("rcs.dates"), "us"},
		"rcs.parse_cache.hit_ratio":                  {ratio(rhits, rhits+rmisses), "ratio"},
		"rcs.checkin_us":                             {median(lt.checkin), "us"},
		"rcs.bytes_written_per_checkin":              {median(lt.checkinBytes), "B"},
		"rcs.stored_bytes_per_user_byte":             {o.storedPerUserByte, "ratio"},
		"textdiff.edscript_us":                       {med("textdiff.edscript"), "us"},
		"htmldoc.tokenize_us":                        {med("htmldoc.tokenize"), "us"},
		"htmldoc.tokens_per_page":                    {median(lt.tokens), "count"},
		"lcs.cells_per_diff":                         {ratio(c["lcs.cells.evaluated"], diffs), "count"},
		"lcs.anchor_fallbacks_per_diff":              {ratio(c["lcs.anchor.fallbacks"], diffs), "count"},
		"htmldiff.prepare_us":                        {med("htmldiff.prepare"), "us"},
		"htmldiff.render_us":                         {med("htmldiff.render"), "us"},
		"htmldiff.render_bytes":                      {median(lt.renderBytes), "B"},
		"memento.negotiate_us":                       {med("memento.negotiate"), "us"},
		"memento.links_us":                           {med("memento.links"), "us"},
		"memento.links_bytes":                        {median(lt.linksBytes), "B"},
		"memento.timemap_us":                         {med("memento.timemap"), "us"},
		"webclient.get_us":                           {med("webclient.get"), "us"},
		"tracker.check_us":                           {med("tracker.check"), "us"},
		"tracker.get_share":                          {o.getShare, "ratio"},
		"robots.fetches_per_pass":                    {o.robotsPerPass, "count"},
		"trace.overhead_pct":                         {lt.overheadPct, "%"},
	}
}
