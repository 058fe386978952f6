package snapshot

// Checksum scrub: the durability half of the self-healing store. The
// shard manifests already hash file content for replication, but
// nothing re-checks files at rest — bit rot or a torn write that
// preserves size and mtime is served to users (or crashes the read
// path) until a replica comparison happens to cover that shard. This
// file adds:
//
//   - A checksum ledger: every write path records the full-content
//     fnv64 of the file it just wrote (check-in, user control file,
//     entity sidecar, import, repair). The ledger is per-shard,
//     append-only JSONL under root/scrub/, replayed at open and
//     compacted by each scrub pass — so recording a check-in costs one
//     appended line, not a rewrite.
//
//   - ScrubShard: re-reads one shard's files (through the facility's
//     fault injector, when installed) and compares against the ledger.
//     Files the ledger has never seen are adopted (pre-ledger
//     repositories get covered incrementally). A mismatch is confirmed
//     under the file's lock — the same lock every write path holds —
//     then repaired from a replica when one holds the bytes the ledger
//     recorded; the damaged original is quarantined, never deleted.
//     A mismatch that cannot be safely resolved (no replica, or the
//     replica disagrees with both the ledger and the disk) is left in
//     place and retried next pass.
//
//   - Scrubber: the background loop (snapshotd -scrub-interval),
//     shard-at-a-time and rate-limited so a scrub never competes with
//     serving traffic for the disks.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"aide/internal/fsatomic"
	"aide/internal/obs"
	"aide/internal/rcs"
	"aide/internal/simclock"
)

// FileFetcher retrieves one repository file's content from elsewhere —
// the repair source for scrub and failover reads. The Replicator
// implements it by querying healthy replicas.
type FileFetcher interface {
	FetchFile(ctx context.Context, kind, name string, shard int) ([]byte, error)
}

// contentHash is the ledger/manifest checksum of raw file bytes.
func contentHash(data []byte) string {
	return fmt.Sprintf("%016x", fnv64(string(data)))
}

// --- checksum ledger ------------------------------------------------------------

// ledgerEntry is one recorded file state (or its tombstone) in the
// append-only ledger stream.
type ledgerEntry struct {
	// Kind and Name identify the file as the store places it.
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Size and Hash are the content length and fnv64 recorded at the
	// last write.
	Size int64  `json:"size,omitempty"`
	Hash string `json:"hash,omitempty"`
	// Delete tombstones the entry (the file was removed).
	Delete bool `json:"delete,omitempty"`
}

// checksumLedger holds the recorded checksums, one append-only JSONL
// file per shard under dir. Shard maps load lazily and stay in memory;
// every mutation appends one line, and compact rewrites the file.
type checksumLedger struct {
	dir string

	mu     sync.Mutex
	shards map[int]map[string]ledgerEntry
}

func newChecksumLedger(dir string) *checksumLedger {
	return &checksumLedger{dir: dir, shards: make(map[int]map[string]ledgerEntry)}
}

func ledgerKey(kind, name string) string { return kind + "\x00" + name }

func (l *checksumLedger) path(shard int) string {
	return filepath.Join(l.dir, fmt.Sprintf("ledger-%03d.jsonl", shard))
}

// loadLocked replays a shard's ledger file into memory; l.mu held.
func (l *checksumLedger) loadLocked(shard int) map[string]ledgerEntry {
	if m, ok := l.shards[shard]; ok {
		return m
	}
	m := make(map[string]ledgerEntry)
	l.shards[shard] = m
	data, err := os.ReadFile(l.path(shard))
	if err != nil {
		return m // absent or unreadable: start empty, adoption refills
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e ledgerEntry
		if json.Unmarshal([]byte(line), &e) != nil {
			continue // torn tail of a crashed append: ignore
		}
		if e.Delete {
			delete(m, ledgerKey(e.Kind, e.Name))
		} else {
			m[ledgerKey(e.Kind, e.Name)] = e
		}
	}
	return m
}

// record stores a file's checksum and appends it to the shard's stream.
func (l *checksumLedger) record(shard int, e ledgerEntry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.loadLocked(shard)
	if e.Delete {
		delete(m, ledgerKey(e.Kind, e.Name))
	} else {
		m[ledgerKey(e.Kind, e.Name)] = e
	}
	return l.appendLocked(shard, e)
}

func (l *checksumLedger) appendLocked(shard int, e ledgerEntry) error {
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path(shard), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return err
	}
	return f.Close()
}

// get returns the recorded state of a file, if any.
func (l *checksumLedger) get(shard int, kind, name string) (ledgerEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.loadLocked(shard)[ledgerKey(kind, name)]
	return e, ok
}

// entries snapshots a shard's ledger map.
func (l *checksumLedger) entries(shard int) map[string]ledgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.loadLocked(shard)
	out := make(map[string]ledgerEntry, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// compact rewrites a shard's stream as one line per live entry,
// bounding replay cost regardless of how many appends accumulated.
func (l *checksumLedger) compact(shard int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.loadLocked(shard)
	var sb strings.Builder
	for _, e := range m {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	return fsatomic.WriteFile(l.path(shard), []byte(sb.String()), 0o644)
}

// --- facility record hooks ------------------------------------------------------

// recordChecksum notes data as the current content of a file, so the
// scrubber can later tell rot from truth. Callers hold the same lock
// the write path held. Ledger trouble is reported as a metric, not an
// error — a failed bookkeeping append must not fail a check-in.
func (f *Facility) recordChecksum(kind, name string, data []byte) {
	shard, err := f.store.ShardOfFile(kind, name)
	if err != nil {
		return
	}
	e := ledgerEntry{Kind: kind, Name: name, Size: int64(len(data)), Hash: contentHash(data)}
	if err := f.ledger.record(shard, e); err != nil {
		f.metrics().Counter("scrub.ledger.errors").Inc()
	}
}

// recordChecksumPath reads a just-written file back and records it
// (no-op when the file is unreadable — the next scrub pass adopts it).
func (f *Facility) recordChecksumPath(kind, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	f.recordChecksum(kind, filepath.Base(path), data)
}

// dropChecksum tombstones a removed file's ledger entry.
func (f *Facility) dropChecksum(kind, name string) {
	shard, err := f.store.ShardOfFile(kind, name)
	if err != nil {
		return
	}
	if err := f.ledger.record(shard, ledgerEntry{Kind: kind, Name: name, Delete: true}); err != nil {
		f.metrics().Counter("scrub.ledger.errors").Inc()
	}
}

// --- scrubbing ------------------------------------------------------------------

// ScrubReport sums one scrub pass's outcomes.
type ScrubReport struct {
	// Shard is the shard scrubbed.
	Shard int `json:"shard"`
	// Scanned counts files whose content was re-read and hashed.
	Scanned int `json:"scanned"`
	// Adopted counts files recorded for the first time (pre-ledger
	// repositories, or files written outside the facility).
	Adopted int `json:"adopted"`
	// Corrupt counts confirmed content mismatches against the ledger.
	Corrupt int `json:"corrupt"`
	// Repaired counts corrupt or missing files restored from a replica.
	Repaired int `json:"repaired"`
	// Quarantined counts damaged originals moved aside before repair.
	Quarantined int `json:"quarantined"`
	// Missing counts ledger entries whose file had vanished from disk.
	Missing int `json:"missing"`
	// Unrepaired counts damage left in place for the next pass (no
	// replica copy matching the ledger was available).
	Unrepaired int `json:"unrepaired"`
}

func (r *ScrubReport) add(o ScrubReport) {
	r.Scanned += o.Scanned
	r.Adopted += o.Adopted
	r.Corrupt += o.Corrupt
	r.Repaired += o.Repaired
	r.Quarantined += o.Quarantined
	r.Missing += o.Missing
	r.Unrepaired += o.Unrepaired
}

// scrubLockKey returns the lock that serialises a file's writes, so a
// scrub confirmation never races a legitimate rewrite: per-URL lock
// for repo files, the per-user lock for control files. Overflow-hashed
// names recover their URL from the ",url" sidecar; a file whose owner
// cannot be determined gets a private scrub lock (best effort).
func (f *Facility) scrubLockKey(kind, name string) string {
	base, ok := baseOf(kind, name)
	if !ok {
		return "scrub:" + name
	}
	if kind == KindUser {
		if u, err := url.QueryUnescape(base); err == nil {
			return "user:" + u
		}
		return "scrub:" + name
	}
	// Overflow-hashed repo names: the sidecar holds the real URL.
	if p, err := f.store.Place(KindURL, base+urlSuffix); err == nil {
		if data, err := os.ReadFile(p); err == nil {
			return f.store.LockKey(strings.TrimSpace(string(data)))
		}
	}
	if u, err := url.QueryUnescape(base); err == nil {
		return f.store.LockKey(u)
	}
	return "scrub:" + name
}

// quarantine moves a damaged file into root/quarantine, stamped so
// repeated damage to one name never collides. The bytes are kept for
// post-mortem, not served.
func (f *Facility) quarantine(path string) error {
	qdir := filepath.Join(f.store.Root(), "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), f.clock.Now().UnixNano()))
	return os.Rename(path, dst)
}

// readStored reads a repository file through the fault injector.
func (f *Facility) readStored(path string) ([]byte, error) {
	return f.Faults.ReadFile(path)
}

// writeStored writes a repository file through the fault injector
// (atomic replace). A repaired or imported archive gets the mode a
// check-in gives it.
func (f *Facility) writeStored(path string, data []byte) error {
	perm := os.FileMode(0o644)
	if strings.HasSuffix(path, archiveSuffix) {
		perm = rcs.ArchiveMode
	}
	return f.Faults.WriteFile(path, data, perm)
}

// ScrubShard re-reads every file in one shard, verifies it against the
// checksum ledger, and repairs what it can. ratePerSec > 0 paces the
// scan (files per second on the facility's clock) so a scrub shares
// the disks politely with serving traffic.
func (f *Facility) ScrubShard(ctx context.Context, shard int, ratePerSec int) (ScrubReport, error) {
	ctx, span := obs.StartSpan(ctx, "snapshot.scrub")
	span.SetAttr("shard", fmt.Sprintf("%d", shard))
	defer span.End()
	rep := ScrubReport{Shard: shard}
	m := f.metrics()
	files, err := f.store.ShardFiles(shard)
	if err != nil {
		return rep, err
	}
	seen := make(map[string]bool, len(files))
	for _, sf := range files {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if ratePerSec > 0 {
			if err := simclock.Sleep(ctx, f.clock, time.Second/time.Duration(ratePerSec)); err != nil {
				return rep, err
			}
		}
		seen[ledgerKey(sf.Kind, sf.Name)] = true
		f.scrubFile(ctx, shard, sf, &rep)
	}
	// Ledger entries whose file is gone: restore from a replica, or —
	// when the store has legitimately moved or dropped the file — let
	// the tombstone stand.
	for key, e := range f.ledger.entries(shard) {
		if seen[key] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		f.scrubMissing(ctx, shard, e, &rep)
	}
	if err := f.ledger.compact(shard); err != nil {
		m.Counter("scrub.ledger.errors").Inc()
	}
	m.Counter("scrub.passes").Inc()
	m.Counter("scrub.scanned").Add(int64(rep.Scanned))
	m.Counter("scrub.adopted").Add(int64(rep.Adopted))
	m.Counter("scrub.corrupt").Add(int64(rep.Corrupt))
	m.Counter("scrub.repaired").Add(int64(rep.Repaired))
	m.Counter("scrub.quarantined").Add(int64(rep.Quarantined))
	m.Counter("scrub.missing").Add(int64(rep.Missing))
	m.Counter("scrub.unrepaired").Add(int64(rep.Unrepaired))
	return rep, nil
}

// scrubFile verifies one present file against the ledger.
func (f *Facility) scrubFile(ctx context.Context, shard int, sf StoredFile, rep *ScrubReport) {
	data, err := f.readStored(sf.Path)
	if err != nil {
		if os.IsNotExist(err) {
			return // removed since listing; the missing pass handles the ledger
		}
		// Unreadable media (EIO): treat like a content mismatch — the
		// bytes cannot be trusted — and go straight to confirm/repair.
		f.confirmAndRepair(ctx, shard, sf, rep)
		return
	}
	rep.Scanned++
	entry, ok := f.ledger.get(shard, sf.Kind, sf.Name)
	if !ok {
		// First sight of this file: adopt its current content as truth.
		f.recordChecksum(sf.Kind, sf.Name, data)
		rep.Adopted++
		return
	}
	if contentHash(data) == entry.Hash {
		return
	}
	f.confirmAndRepair(ctx, shard, sf, rep)
}

// confirmAndRepair re-checks a suspected-corrupt file under its write
// lock and repairs it from a replica when the replica's bytes match
// what the ledger recorded. The decision table (disk D, ledger L,
// replica R):
//
//	D == L           → transient (injected read fault, or a write that
//	                   landed between reads): nothing to do.
//	R == L, D != L   → the disk rotted: quarantine D, install R.
//	R == D, D != L   → the ledger is stale (a write outside the
//	                   facility): adopt D.
//	otherwise        → ambiguous (replica lagging a legitimate write,
//	                   or everything disagrees): leave D, retry next
//	                   pass once replication has converged.
func (f *Facility) confirmAndRepair(ctx context.Context, shard int, sf StoredFile, rep *ScrubReport) {
	unlock, err := f.locks.Lock(f.scrubLockKey(sf.Kind, sf.Name))
	if err != nil {
		rep.Unrepaired++
		return
	}
	defer unlock()
	entry, ok := f.ledger.get(shard, sf.Kind, sf.Name)
	if !ok {
		return // tombstoned while we waited for the lock
	}
	// Confirmation read outside the injector: an injected read fault
	// models rot on the wire between media and memory, which a re-read
	// does not reproduce; real on-disk damage still mismatches here.
	data, err := os.ReadFile(sf.Path)
	if err != nil {
		if os.IsNotExist(err) {
			return
		}
		data = nil // unreadable: fall through to repair
	}
	if data != nil && contentHash(data) == entry.Hash {
		return
	}
	rep.Corrupt++
	if f.Failover == nil {
		rep.Unrepaired++
		return
	}
	good, err := f.Failover.FetchFile(ctx, sf.Kind, sf.Name, shard)
	if err != nil {
		rep.Unrepaired++
		return
	}
	switch contentHash(good) {
	case entry.Hash:
		// The replica holds exactly what we recorded: the local copy
		// rotted. Keep the damaged bytes for post-mortem, restore.
		if data != nil {
			if err := f.quarantine(sf.Path); err != nil {
				rep.Unrepaired++
				return
			}
			rep.Quarantined++
		}
		if err := f.writeStored(sf.Path, good); err != nil {
			rep.Unrepaired++
			return
		}
		f.recordChecksum(sf.Kind, sf.Name, good)
		if sf.Kind == KindArchive {
			f.invalidateDiffCacheAll() // rewritten archive: cached renderings are suspect
		}
		rep.Repaired++
	case contentHash(data):
		// Replica agrees with the disk against the ledger: the ledger
		// is stale, the file is fine. Adopt.
		f.recordChecksum(sf.Kind, sf.Name, data)
		rep.Adopted++
	default:
		rep.Unrepaired++
	}
}

// scrubMissing handles a ledger entry whose file is absent.
func (f *Facility) scrubMissing(ctx context.Context, shard int, e ledgerEntry, rep *ScrubReport) {
	path, err := f.store.Place(e.Kind, e.Name)
	if err != nil {
		f.dropChecksum(e.Kind, e.Name)
		return
	}
	if _, serr := os.Stat(path); serr == nil {
		// Present after all (created after the listing, or the entry
		// belongs to another shard after a rebalance): the next pass
		// covers it where it lives now.
		return
	}
	rep.Missing++
	if f.Failover != nil {
		if good, ferr := f.Failover.FetchFile(ctx, e.Kind, e.Name, shard); ferr == nil {
			unlock, lerr := f.locks.Lock(f.scrubLockKey(e.Kind, e.Name))
			if lerr == nil {
				if _, serr := os.Stat(path); os.IsNotExist(serr) {
					if werr := f.writeStored(path, good); werr == nil {
						f.recordChecksum(e.Kind, e.Name, good)
						if e.Kind == KindArchive {
							f.invalidateDiffCacheAll()
						}
						rep.Repaired++
						unlock()
						return
					}
				}
				unlock()
			}
		}
	}
	// No replica copy: the file is gone for good (or was legitimately
	// deleted without a tombstone). Stop reporting it every pass.
	f.dropChecksum(e.Kind, e.Name)
}

// --- background scrubber --------------------------------------------------------

// Scrubber drives periodic shard-at-a-time scrubs of a facility.
type Scrubber struct {
	// Facility is the store to scrub.
	Facility *Facility
	// Interval is the pause between shard scrubs (default 10 minutes).
	Interval time.Duration
	// RatePerSec paces each scan in files per second (0 = unpaced).
	RatePerSec int

	mu     sync.Mutex
	next   int
	passes int64
	totals ScrubReport
	last   ScrubReport
}

// ScrubStatus is the scrubber's /debug/shards row.
type ScrubStatus struct {
	// Passes counts completed shard scrubs.
	Passes int64 `json:"passes"`
	// Last is the most recent pass's report.
	Last ScrubReport `json:"last"`
	// Totals accumulates all passes.
	Totals ScrubReport `json:"totals"`
}

// Status reports the scrubber's lifetime numbers.
func (s *Scrubber) Status() ScrubStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ScrubStatus{Passes: s.passes, Last: s.last, Totals: s.totals}
}

// ScrubNext scrubs the next shard in rotation (exported so tests and
// operators can single-step the rotation).
func (s *Scrubber) ScrubNext(ctx context.Context) (ScrubReport, error) {
	s.mu.Lock()
	shard := s.next % s.Facility.Shards()
	s.next = shard + 1
	s.mu.Unlock()
	rep, err := s.Facility.ScrubShard(ctx, shard, s.RatePerSec)
	s.mu.Lock()
	s.passes++
	s.last = rep
	s.totals.add(rep)
	s.mu.Unlock()
	return rep, err
}

// Run scrubs shards in rotation until ctx ends, pausing Interval
// between shards.
func (s *Scrubber) Run(ctx context.Context) {
	interval := s.Interval
	if interval <= 0 {
		interval = 10 * time.Minute
	}
	for {
		if _, err := s.ScrubNext(ctx); err != nil && ctx.Err() == nil {
			obs.Logger().Warn("scrub", "err", err)
		}
		if err := simclock.Sleep(ctx, s.Facility.clock, interval); err != nil {
			return
		}
	}
}
