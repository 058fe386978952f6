package snapshot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aide/internal/rcs"
	"aide/internal/simclock"
	"aide/internal/webclient"
	"aide/internal/websim"
)

// shardedRig builds a facility over an explicit N-shard store,
// independent of the SNAPSHOT_TEST_SHARDS hook.
func shardedRig(t *testing.T, shards int) *rig {
	t.Helper()
	clock := simclock.New(time.Time{})
	web := websim.New(clock)
	fac, err := NewSharded(t.TempDir(), shards, webclient.New(web), clock)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{web: web, clock: clock, fac: fac}
}

func TestRingDistribution(t *testing.T) {
	const shards, keys = 8, 2000
	r := newRing(shards)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		counts[r.locate(fmt.Sprintf("http://site-%d.example.com/page/%d", i%97, i))]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d got no keys: %v", s, counts)
		}
		// Perfectly even would be keys/shards; allow generous skew but
		// catch a broken ring that dumps most keys on one shard.
		if c > 3*keys/shards {
			t.Fatalf("shard %d got %d of %d keys (counts %v)", s, c, keys, counts)
		}
	}
}

func TestRingStabilityOnShardAdd(t *testing.T) {
	const keys = 2000
	r8, r9 := newRing(8), newRing(9)
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("http://h/page-%d", i)
		if r8.locate(k) != r9.locate(k) {
			moved++
		}
	}
	// Consistent hashing: adding one shard to 8 should move roughly 1/9
	// of the keys, not the ~8/9 a mod-N scheme would.
	if moved > keys/3 {
		t.Fatalf("adding a shard moved %d of %d keys", moved, keys)
	}
	if moved == 0 {
		t.Fatal("adding a shard moved no keys at all")
	}
}

func TestArchiveBaseOverflow(t *testing.T) {
	short := "http://h/p"
	if got := archiveBase(short); got != url.QueryEscape(short) {
		t.Fatalf("short URL base = %q", got)
	}
	longA := "http://h/" + strings.Repeat("a", 400)
	longB := "http://h/" + strings.Repeat("a", 400) + "b"
	baseA, baseB := archiveBase(longA), archiveBase(longB)
	for _, base := range []string{baseA, baseB} {
		if len(base)+len(entitiesSuffix) > maxNameLen {
			t.Fatalf("overflow base still too long: %d bytes", len(base))
		}
	}
	if baseA == baseB {
		t.Fatalf("distinct long URLs share base %q", baseA)
	}
}

func TestLongURLCheckinAndListing(t *testing.T) {
	longURL := "http://h/" + strings.Repeat("x", 500)
	for _, shards := range []int{1, 4} {
		r := shardedRigOrFlat(t, shards)
		res, err := r.fac.RememberContent(context.Background(), userA, longURL, "long content\n")
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !res.FirstTime || res.Rev != "1.1" {
			t.Fatalf("shards=%d: remember = %+v", shards, res)
		}
		text, err := r.fac.Checkout(longURL, "")
		if err != nil || text != "long content\n" {
			t.Fatalf("shards=%d: checkout = (%q,%v)", shards, text, err)
		}
		// The ,url sidecar recovers the unabbreviated URL in listings.
		urls, err := r.fac.ArchivedURLs()
		if err != nil || len(urls) != 1 || urls[0] != longURL {
			t.Fatalf("shards=%d: urls = %v, err %v", shards, urls, err)
		}
	}
}

func shardedRigOrFlat(t *testing.T, shards int) *rig {
	t.Helper()
	if shards <= 1 {
		clock := simclock.New(time.Time{})
		web := websim.New(clock)
		fac, err := NewSharded(t.TempDir(), 1, webclient.New(web), clock)
		if err != nil {
			t.Fatal(err)
		}
		return &rig{web: web, clock: clock, fac: fac}
	}
	return shardedRig(t, shards)
}

func TestLegacyOverlongNamesStillReadable(t *testing.T) {
	// A URL whose escaped name fits NAME_MAX with ",v" but not with
	// ",entities.json": pre-fix repositories hold it under the full
	// escaped name, post-fix code hashes it. Both must resolve.
	longURL := "http://h/" + strings.Repeat("y", 232) // escaped len 249: +2 ok, +14 not
	esc := url.QueryEscape(longURL)
	if len(esc)+len(archiveSuffix) > maxNameLen || len(esc)+len(entitiesSuffix) <= maxNameLen {
		t.Fatalf("test URL not in the ambiguous range: escaped len %d", len(esc))
	}
	clock := simclock.New(time.Time{})
	dir := t.TempDir()
	fac, err := NewSharded(dir, 1, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Write the archive the way a pre-fix version did: full escaped name.
	legacy := filepath.Join(dir, "repo", esc+archiveSuffix)
	if _, _, err := rcs.Open(legacy, clock).Checkin("legacy content\n", userA, "old layout"); err != nil {
		t.Fatal(err)
	}
	text, err := fac.Checkout(longURL, "")
	if err != nil || text != "legacy content\n" {
		t.Fatalf("legacy checkout = (%q,%v)", text, err)
	}
}

func TestRebalanceFlatToSharded(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.New(time.Time{})
	flat, err := NewSharded(dir, 1, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 12; i++ {
		u := fmt.Sprintf("http://h/page-%d", i)
		urls = append(urls, u)
		if _, err := flat.RememberContent(context.Background(), userA, u, fmt.Sprintf("content %d\n", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen the same directory sharded and migrate.
	sharded, err := NewSharded(dir, 4, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := sharded.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("rebalance moved nothing out of the flat layout")
	}
	got, err := sharded.ArchivedURLs()
	if err != nil || len(got) != len(urls) {
		t.Fatalf("after rebalance: %d urls (%v), err %v", len(got), got, err)
	}
	for _, u := range urls {
		text, err := sharded.Checkout(u, "")
		if err != nil || !strings.HasPrefix(text, "content ") {
			t.Fatalf("checkout %s after rebalance = (%q,%v)", u, text, err)
		}
	}
	// User control files migrated too.
	if seen := sharded.UserURLs(userA); len(seen) != len(urls) {
		t.Fatalf("user urls after rebalance = %v", seen)
	}
	// The legacy flat dirs are gone once emptied.
	if _, err := os.Stat(filepath.Join(dir, "repo")); !os.IsNotExist(err) {
		t.Fatalf("legacy repo dir still present: %v", err)
	}
}

func TestRebalanceAfterShardAdd(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.New(time.Time{})
	fac4, err := NewSharded(dir, 4, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("http://h/page-%d", i)
		if _, err := fac4.RememberContent(context.Background(), "", u, "body\n"); err != nil {
			t.Fatal(err)
		}
	}
	fac5, err := NewSharded(dir, 5, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := fac5.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	// Consistent hashing: only the new shard's arcs move, not most keys.
	if moved >= n {
		t.Fatalf("shard add moved %d of %d archives", moved, n)
	}
	urls, err := fac5.ArchivedURLs()
	if err != nil || len(urls) != n {
		t.Fatalf("after shard add: %d urls, err %v", len(urls), err)
	}
	for _, u := range urls {
		if _, err := fac5.Checkout(u, ""); err != nil {
			t.Fatalf("checkout %s: %v", u, err)
		}
	}
}

func TestShardedExportMatchesFlat(t *testing.T) {
	checkins := func(fac *Facility) {
		for i := 0; i < 10; i++ {
			u := fmt.Sprintf("http://h/page-%d", i)
			if _, err := fac.RememberContent(context.Background(), userA, u, fmt.Sprintf("v1 of %d\n", i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fac.RememberContent(context.Background(), userB, "http://h/page-0", "v1 of 0\n"); err != nil {
			t.Fatal(err)
		}
	}
	clock1 := simclock.New(time.Time{})
	flat, err := NewSharded(t.TempDir(), 1, nil, clock1)
	if err != nil {
		t.Fatal(err)
	}
	checkins(flat)
	clock2 := simclock.New(time.Time{})
	sharded, err := NewSharded(t.TempDir(), 8, nil, clock2)
	if err != nil {
		t.Fatal(err)
	}
	checkins(sharded)

	var flatDump, shardedDump bytes.Buffer
	if err := flat.Export(&flatDump); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Export(&shardedDump); err != nil {
		t.Fatal(err)
	}
	if flatDump.String() != shardedDump.String() {
		t.Fatalf("sharded export differs from flat:\nflat:\n%s\nsharded:\n%s",
			flatDump.String(), shardedDump.String())
	}
}

func TestCheckinBatchShardParallel(t *testing.T) {
	r := shardedRig(t, 8)
	var items []BatchItem
	for i := 0; i < 32; i++ {
		items = append(items, BatchItem{
			URL:  fmt.Sprintf("http://h/batch-%d", i),
			Body: fmt.Sprintf("batch body %d\n", i),
		})
	}
	results, errs := r.fac.CheckinBatch(context.Background(), userA, items)
	for i := range items {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if results[i].Rev != "1.1" || !results[i].FirstTime {
			t.Fatalf("item %d = %+v", i, results[i])
		}
	}
	urls, err := r.fac.ArchivedURLs()
	if err != nil || len(urls) != len(items) {
		t.Fatalf("archived %d urls, err %v", len(urls), err)
	}
}

func TestShardStats(t *testing.T) {
	r := shardedRig(t, 4)
	const n = 20
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("http://h/stat-%d", i)
		if _, err := r.fac.RememberContent(context.Background(), "", u, "stat body\n"); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := r.fac.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("stats rows = %d", len(stats))
	}
	total, bytesTotal := 0, int64(0)
	for _, st := range stats {
		total += st.Archives
		bytesTotal += st.Bytes
	}
	if total != n || bytesTotal == 0 {
		t.Fatalf("stats total = %d archives, %d bytes (%+v)", total, bytesTotal, stats)
	}
}

func TestSingleShardRepoOpensUnchanged(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.New(time.Time{})
	fac, err := NewSharded(dir, 1, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fac.RememberContent(context.Background(), userA, "http://h/p", "original\n"); err != nil {
		t.Fatal(err)
	}
	// Reopen under -shards 1: same layout, same data, no migration.
	again, err := NewSharded(dir, 1, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	if moved, err := again.Rebalance(); err != nil || moved != 0 {
		t.Fatalf("flat rebalance = (%d,%v)", moved, err)
	}
	text, err := again.Checkout("http://h/p", "")
	if err != nil || text != "original\n" {
		t.Fatalf("reopened checkout = (%q,%v)", text, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "repo")); err != nil {
		t.Fatalf("flat repo dir missing after reopen: %v", err)
	}
}

func TestRebalanceShrinkToOneShard(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.New(time.Time{})
	fac4, err := NewSharded(dir, 4, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("http://h/shrink-%d", i)
		if _, err := fac4.RememberContent(context.Background(), userA, u, fmt.Sprintf("content %d\n", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen under -shards 1 and migrate everything back to the root.
	fac1, err := NewSharded(dir, 1, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fac1.Rebalance(); err != nil {
		t.Fatal(err)
	}
	urls, err := fac1.ArchivedURLs()
	if err != nil || len(urls) != n {
		t.Fatalf("%d of %d archives visible after shrinking to one shard (err %v)", len(urls), n, err)
	}
	for _, u := range urls {
		if text, err := fac1.Checkout(u, ""); err != nil || !strings.HasPrefix(text, "content ") {
			t.Fatalf("checkout %s after shrink = (%q,%v)", u, text, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "users", url.QueryEscape(userA)+".json")); err != nil {
		t.Fatalf("user control file not back in root/users: %v", err)
	}
	if seen := fac1.UserURLs(userA); len(seen) != n {
		t.Fatalf("user urls after shrink = %d, want %d", len(seen), n)
	}
}

// TestRebalanceKeepsConflictingCopies covers a repository served at a
// shard count whose layout did not match the files on disk: pages
// remembered then got fresh archives and control files at the new
// location, next to the older copies. Rebalance must keep both
// histories, in either direction.
func TestRebalanceKeepsConflictingCopies(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{4, 1}, {1, 4}} {
		t.Run(fmt.Sprintf("%d-to-%d", tc.from, tc.to), func(t *testing.T) {
			dir := t.TempDir()
			clock := simclock.New(time.Time{})
			const u, same = "http://h/conflict", "http://h/duplicate"
			older, err := NewSharded(dir, tc.from, nil, clock)
			if err != nil {
				t.Fatal(err)
			}
			for _, page := range []string{u, same} {
				if _, err := older.RememberContent(context.Background(), userA, page, "old history\n"); err != nil {
					t.Fatal(err)
				}
			}
			// Serve at the other count without rebalancing: u is
			// remembered afresh at its new location, and an identical
			// copy of same's archive appears there too.
			newer, err := NewSharded(dir, tc.to, nil, clock)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := newer.RememberContent(context.Background(), userA, u, "new history\n"); err != nil {
				t.Fatal(err)
			}
			oldSame := older.Store().ArchivePath(same)
			data, err := os.ReadFile(oldSame)
			if err != nil {
				t.Fatal(err)
			}
			newSame := newer.Store().ArchivePath(same)
			if err := os.MkdirAll(filepath.Dir(newSame), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newSame, data, 0o644); err != nil {
				t.Fatal(err)
			}

			_, err = newer.Rebalance()
			var conflicts *ConflictError
			if !errors.As(err, &conflicts) {
				t.Fatalf("rebalance err = %v, want a *ConflictError", err)
			}
			// The archive and the user's control file conflict; the
			// identical duplicate does not.
			if len(conflicts.Paths) != 2 {
				t.Fatalf("set aside %v, want u's archive and userA's control file", conflicts.Paths)
			}
			if text, err := newer.Checkout(u, ""); err != nil || text != "new history\n" {
				t.Fatalf("served copy = (%q,%v), want the new history", text, err)
			}
			aside, _ := filepath.Glob(filepath.Join(dir, "quarantine", filepath.Base(older.Store().ArchivePath(u))+".*"))
			if len(aside) != 1 {
				t.Fatalf("quarantined archives %v, want one", aside)
			}
			if text, err := rcs.Open(aside[0], clock).Checkout(""); err != nil || text != "old history\n" {
				t.Fatalf("set-aside copy = (%q,%v), want the old history", text, err)
			}
			if text, err := newer.Checkout(same, ""); err != nil || text != "old history\n" {
				t.Fatalf("duplicate checkout = (%q,%v)", text, err)
			}
			if _, err := os.Stat(oldSame); !os.IsNotExist(err) {
				t.Fatalf("identical duplicate %s not removed: %v", oldSame, err)
			}
			// A second boot finds nothing left to move or set aside.
			if moved, err := newer.Rebalance(); err != nil || moved != 0 {
				t.Fatalf("second rebalance = (%d,%v)", moved, err)
			}
		})
	}
}

// BenchmarkStoreArchivePath measures the read path's name resolution:
// one-shard stores skip the ring hash entirely.
func BenchmarkStoreArchivePath(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			fac, err := NewSharded(b.TempDir(), shards, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			st := fac.Store()
			urls := make([]string, 64)
			for i := range urls {
				urls[i] = fmt.Sprintf("http://site-%d.example.com/dir/page-%d.html", i%7, i)
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				st.ArchivePath(urls[i%len(urls)])
				i++
			}
		})
	}
}
