package snapshot

// This file is the facility's storage layer. The paper's §4.2
// anticipates a saturated facility that "could ... replicate itself
// among multiple computers, as many W3 services do"; the Store maps page
// URLs and user names to the files that hold their archives, entity
// sidecars, and control files, partitions them across N shard
// directories, and enumerates them for sweeps and replication.
//
// There is one layout. Shards are assigned by consistent hashing (a
// hash ring with virtual nodes), so shards can be added later and only
// ~1/N of the keys move; Rebalance migrates the misplaced remainder, in
// either direction. A one-shard store keeps its single shard in the
// root itself — root/repo and root/users — which is the original flat
// layout, so repositories created before sharding open unchanged.
//
// The ring is keyed on file *base names*, not raw URLs. A base name is
// a pure function of its URL (see archiveBase), so this is consistent
// hashing of the URL — but it lets Import, Rebalance, and replication
// place any repository file knowing only its name, which matters for
// overflow-hashed names whose URL is not recoverable from the name.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aide/internal/fsatomic"
)

// File-kind tags shared by export dumps, manifests, and Place.
const (
	KindArchive  = "archive"
	KindEntities = "entities"
	KindURL      = "url"
	KindUser     = "user"
)

// Suffixes that turn a base name into a concrete repository file.
const (
	archiveSuffix  = ",v"
	entitiesSuffix = ",entities.json"
	urlSuffix      = ",url"
	userSuffix     = ".json"
)

// maxNameLen is the portable NAME_MAX: a file base name longer than
// this fails to create on most filesystems.
const maxNameLen = 255

// StoredFile is one repository file as a store enumerates it.
type StoredFile struct {
	// Kind is one of KindArchive, KindEntities, KindURL, KindUser.
	Kind string
	// Name is the file's base name on disk.
	Name string
	// Path is the file's full path.
	Path string
	// Shard is the shard holding the file (0 in a one-shard store).
	Shard int
}

// --- naming -------------------------------------------------------------------

// archiveBase returns the file base name for a page URL: its URL-escaped
// form when every derived file name (base plus the longest suffix) fits
// in NAME_MAX, else a truncated prefix joined to an fnv64 hash of the
// full URL. Hashed names are not invertible; NoteURL records their URL
// in a ",url" sidecar so listings can still recover it.
func archiveBase(pageURL string) string {
	esc := url.QueryEscape(pageURL)
	if len(esc)+len(entitiesSuffix) <= maxNameLen {
		return esc
	}
	h := fnv.New64a()
	h.Write([]byte(pageURL))
	sum := fmt.Sprintf("%016x", h.Sum64())
	keep := maxNameLen - len(entitiesSuffix) - len(sum) - 1
	return esc[:keep] + "-" + sum
}

// userBase returns the control-file base name (sans ".json") for a
// user, with the same overflow fallback as archiveBase.
func userBase(user string) string {
	esc := url.QueryEscape(user)
	if len(esc)+len(userSuffix) <= maxNameLen {
		return esc
	}
	h := fnv.New64a()
	h.Write([]byte(user))
	sum := fmt.Sprintf("%016x", h.Sum64())
	keep := maxNameLen - len(userSuffix) - len(sum) - 1
	return esc[:keep] + "-" + sum
}

// baseOf strips a repository file name back to its ring key. ok is
// false for names that carry none of the known suffixes.
func baseOf(kind, name string) (base string, ok bool) {
	switch kind {
	case KindArchive:
		base = strings.TrimSuffix(name, archiveSuffix)
	case KindEntities:
		base = strings.TrimSuffix(name, entitiesSuffix)
	case KindURL:
		base = strings.TrimSuffix(name, urlSuffix)
	case KindUser:
		base = strings.TrimSuffix(name, userSuffix)
	default:
		return "", false
	}
	return base, base != name
}

// kindOfRepoFile classifies a repo-directory file by suffix.
func kindOfRepoFile(name string) (string, bool) {
	switch {
	case strings.HasSuffix(name, entitiesSuffix):
		return KindEntities, true
	case strings.HasSuffix(name, urlSuffix):
		return KindURL, true
	case strings.HasSuffix(name, archiveSuffix):
		return KindArchive, true
	}
	return "", false
}

// legacyArchivePath returns the pre-overflow-fix path for a URL whose
// base name is hashed today but whose plain ",v" name still fit in
// NAME_MAX — repositories written before the fix hold such archives
// under the full escaped name, and those stay readable.
func legacyArchivePath(repoDir, pageURL string) (string, bool) {
	esc := url.QueryEscape(pageURL)
	if len(esc)+len(entitiesSuffix) <= maxNameLen || len(esc)+len(archiveSuffix) > maxNameLen {
		return "", false
	}
	p := filepath.Join(repoDir, esc+archiveSuffix)
	if _, err := os.Stat(p); err != nil {
		return "", false
	}
	return p, true
}

// urlsInRepoDir resolves the archived URLs found in one repo directory:
// names decode via QueryUnescape unless a ",url" sidecar records the
// original (overflow-hashed names).
func urlsInRepoDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	sidecars := make(map[string]bool)
	var bases []string
	for _, e := range entries {
		name := e.Name()
		if base, ok := baseOf(KindURL, name); ok {
			sidecars[base] = true
			continue
		}
		if kind, ok := kindOfRepoFile(name); ok && kind == KindArchive {
			bases = append(bases, strings.TrimSuffix(name, archiveSuffix))
		}
	}
	var urls []string
	for _, base := range bases {
		if sidecars[base] {
			data, err := os.ReadFile(filepath.Join(dir, base+urlSuffix))
			if err != nil {
				return nil, err
			}
			urls = append(urls, strings.TrimSpace(string(data)))
			continue
		}
		u, err := url.QueryUnescape(base)
		if err != nil {
			continue // not one of ours
		}
		urls = append(urls, u)
	}
	return urls, nil
}

// filesInDir enumerates one directory's repository files as StoredFiles.
// Repo directories classify by suffix; user directories tag everything
// KindUser. Temp files are skipped.
func filesInDir(dir string, userDir bool, shard int) ([]StoredFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []StoredFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasSuffix(name, ".tmp") {
			continue
		}
		kind := KindUser
		if !userDir {
			var ok bool
			kind, ok = kindOfRepoFile(name)
			if !ok {
				continue
			}
		}
		out = append(out, StoredFile{Kind: kind, Name: name, Path: filepath.Join(dir, name), Shard: shard})
	}
	return out, nil
}

// noteURLAt writes the ",url" reverse-map sidecar beside an archive
// whose base name is hashed; a no-op when the name decodes on its own.
func noteURLAt(repoDir, pageURL string) error {
	base := archiveBase(pageURL)
	if base == url.QueryEscape(pageURL) {
		return nil
	}
	return fsatomic.WriteFile(filepath.Join(repoDir, base+urlSuffix), []byte(pageURL+"\n"), 0o644)
}

// --- consistent-hash ring ------------------------------------------------------

// ringVnodes is how many virtual nodes each shard contributes to the
// ring; more vnodes smooth the key distribution across shards.
const ringVnodes = 64

type ringPoint struct {
	hash  uint64
	shard int
}

// hashRing assigns keys to shards by consistent hashing: each shard
// owns the arc before each of its virtual points, so adding a shard
// moves only the keys falling on the new points' arcs (~1/N of them).
type hashRing struct {
	points []ringPoint
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// newRing builds the ring for N shards. A one-shard ring has no points:
// locate answers 0 without hashing.
func newRing(shards int) *hashRing {
	if shards <= 1 {
		return &hashRing{}
	}
	r := &hashRing{points: make([]ringPoint, 0, shards*ringVnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{fnv64(fmt.Sprintf("shard-%d-vnode-%d", s, v)), s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// locate returns the shard owning key: the first ring point at or after
// the key's hash, wrapping at the top.
func (r *hashRing) locate(key string) int {
	if len(r.points) == 0 {
		return 0
	}
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// --- Store -------------------------------------------------------------------

// Store partitions the repository across N shard directories by
// consistent hashing of file base names. Shard i's repo/ and users/
// live in root/shard-NNN; a one-shard store's only shard is the root
// itself, which is the original flat layout (root/repo, root/users).
// Lock files stay shared at root/locks.
type Store struct {
	root   string
	shards int
	ring   *hashRing
}

// NewStore creates (or reopens) an N-shard layout under dir; shards <= 1
// means one shard, the flat layout. Opening a directory laid out with a
// different shard count succeeds; run Rebalance to migrate the
// misplaced files before serving.
func NewStore(dir string, shards int) (*Store, error) {
	if shards < 1 {
		shards = 1
	}
	if err := os.MkdirAll(filepath.Join(dir, "locks"), 0o755); err != nil {
		return nil, err
	}
	s := &Store{root: dir, shards: shards, ring: newRing(shards)}
	for i := 0; i < shards; i++ {
		for _, sub := range []string{"repo", "users"} {
			if err := os.MkdirAll(filepath.Join(s.shardDir(i), sub), 0o755); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Root returns the store's top-level data directory.
func (s *Store) Root() string { return s.root }

// Shards reports how many shards partition the store.
func (s *Store) Shards() int { return s.shards }

func (s *Store) shardDir(i int) string {
	if s.shards == 1 {
		return s.root
	}
	return filepath.Join(s.root, fmt.Sprintf("shard-%03d", i))
}

func (s *Store) repoDir(i int) string { return filepath.Join(s.shardDir(i), "repo") }

// repoPath returns the path of a file in shard i's repo directory.
func (s *Store) repoPath(i int, name string) string {
	return filepath.Join(s.shardDir(i), "repo", name)
}

// ShardOf maps a page URL to the shard holding its archive. It hashes
// the archive base name, so the assignment survives name overflow and
// matches Place.
func (s *Store) ShardOf(pageURL string) int {
	return s.ring.locate(archiveBase(pageURL))
}

// ArchivePath returns the RCS archive path for a page URL.
func (s *Store) ArchivePath(pageURL string) string {
	base := archiveBase(pageURL)
	if len(base) == maxNameLen-len(entitiesSuffix) {
		// Possibly an overflow-hashed name (they fill the budget
		// exactly): a pre-fix repository may hold this URL under its
		// full escaped name, which the ring places by that name.
		esc := url.QueryEscape(pageURL)
		if p, ok := legacyArchivePath(s.repoDir(s.ring.locate(esc)), pageURL); ok {
			return p
		}
	}
	return s.repoPath(s.ring.locate(base), base+archiveSuffix)
}

// EntityPath returns the entity-snapshot sidecar path for a page URL.
func (s *Store) EntityPath(pageURL string) string {
	base := archiveBase(pageURL)
	return s.repoPath(s.ring.locate(base), base+entitiesSuffix)
}

// UserPath returns the control-file path for a user.
func (s *Store) UserPath(user string) string {
	base := userBase(user)
	return filepath.Join(s.shardDir(s.ring.locate(base)), "users", base+userSuffix)
}

// NoteURL persists the name→URL reverse mapping for pages whose archive
// name had to be hashed (a ",url" sidecar); it is a no-op for names
// that already decode back to their URL.
func (s *Store) NoteURL(pageURL string) error {
	return noteURLAt(s.repoDir(s.ShardOf(pageURL)), pageURL)
}

// ArchivedURLs lists every URL with an archive, sorted.
func (s *Store) ArchivedURLs() ([]string, error) {
	var urls []string
	for i := 0; i < s.shards; i++ {
		us, err := urlsInRepoDir(s.repoDir(i))
		if err != nil {
			return nil, err
		}
		urls = append(urls, us...)
	}
	sort.Strings(urls)
	return urls, nil
}

// ShardURLs lists the archived URLs of one shard, sorted.
func (s *Store) ShardURLs(shard int) ([]string, error) {
	if err := s.checkShard(shard); err != nil {
		return nil, err
	}
	urls, err := urlsInRepoDir(s.repoDir(shard))
	if err != nil {
		return nil, err
	}
	sort.Strings(urls)
	return urls, nil
}

// Files enumerates every repository file: repo files (archives, entity
// and url sidecars) sorted by name, then user control files sorted by
// name — the export order, so an export is byte-identical whatever the
// shard count.
func (s *Store) Files() ([]StoredFile, error) {
	var repo, users []StoredFile
	for i := 0; i < s.shards; i++ {
		r, u, err := s.shardFiles(i)
		if err != nil {
			return nil, err
		}
		repo = append(repo, r...)
		users = append(users, u...)
	}
	sortFiles(repo)
	sortFiles(users)
	return append(repo, users...), nil
}

// ShardFiles enumerates one shard's files in the same order as Files.
func (s *Store) ShardFiles(shard int) ([]StoredFile, error) {
	if err := s.checkShard(shard); err != nil {
		return nil, err
	}
	repo, users, err := s.shardFiles(shard)
	if err != nil {
		return nil, err
	}
	sortFiles(repo)
	sortFiles(users)
	return append(repo, users...), nil
}

func (s *Store) shardFiles(shard int) (repo, users []StoredFile, err error) {
	if repo, err = filesInDir(s.repoDir(shard), false, shard); err != nil {
		return nil, nil, err
	}
	users, err = filesInDir(filepath.Join(s.shardDir(shard), "users"), true, shard)
	return repo, users, err
}

func (s *Store) checkShard(shard int) error {
	if shard < 0 || shard >= s.shards {
		return fmt.Errorf("snapshot: no shard %d (store has %d)", shard, s.shards)
	}
	return nil
}

// Place returns the path where a file of the given kind and base name
// belongs, so imported and replicated files land in the right shard
// without the store needing the original URL.
func (s *Store) Place(kind, name string) (string, error) {
	shard, err := s.ShardOfFile(kind, name)
	if err != nil {
		return "", err
	}
	if kind == KindUser {
		return filepath.Join(s.shardDir(shard), "users", name), nil
	}
	return s.repoPath(shard, name), nil
}

// ShardOfFile maps a file (by kind and base name) to the shard that
// owns it — the name-keyed counterpart of ShardOf, for repair paths
// that know a damaged file's name but not its URL.
func (s *Store) ShardOfFile(kind, name string) (int, error) {
	if err := checkPlaceName(kind, name); err != nil {
		return 0, err
	}
	base, ok := baseOf(kind, name)
	if !ok {
		return 0, fmt.Errorf("snapshot: %s file %q lacks its suffix", kind, name)
	}
	return s.ring.locate(base), nil
}

// Remove deletes the file of the given kind and name (nil if absent).
func (s *Store) Remove(kind, name string) error {
	p, err := s.Place(kind, name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// LockKey returns the per-URL mutual-exclusion key for a page. A URL
// lives in exactly one shard, so the URL alone is the key.
func (s *Store) LockKey(pageURL string) string { return "url:" + pageURL }

// Rebalance walks every shard directory present on disk — the root's
// repo/ and users/ and every shard-NNN, current count or not — and
// moves each file to the location the ring assigns its name, then
// drops the emptied directories no current shard uses. It serves every
// shard-count change: flat to sharded, adding shards (only the ~1/N of
// keys whose arcs the new shards took over move), and shrinking down to
// one shard. Run it before serving; it does not coordinate with
// concurrent check-ins.
//
// Rebalance never overwrites. A file whose target already holds the
// same bytes is a stale duplicate and is removed. A file whose target
// holds different bytes — two histories of one page, written while the
// repository was served at another shard count — is handed to setAside
// (the facility quarantines it) and the target, the copy being served,
// stays; after all moves Rebalance returns a *ConflictError naming
// every copy set aside.
func (s *Store) Rebalance(setAside func(path string) error) (moved int, err error) {
	globbed, err := filepath.Glob(filepath.Join(s.root, "shard-*"))
	if err != nil {
		return 0, err
	}
	sort.Strings(globbed)
	dirs := append([]string{s.root}, globbed...)
	var conflicts []string
	for _, d := range dirs {
		for _, sub := range []string{"repo", "users"} {
			files, err := filesInDir(filepath.Join(d, sub), sub == "users", -1)
			if err != nil {
				return moved, err
			}
			for _, f := range files {
				want, err := s.Place(f.Kind, f.Name)
				if err != nil || want == f.Path {
					continue // in place, or an unrecognised name: leave it
				}
				same, err := sameContents(want, f.Path)
				switch {
				case os.IsNotExist(err):
					err = os.Rename(f.Path, want)
				case err == nil && same:
					err = os.Remove(f.Path)
				case err == nil:
					if err = setAside(f.Path); err == nil {
						conflicts = append(conflicts, f.Path)
						continue
					}
				}
				if err != nil {
					return moved, fmt.Errorf("snapshot: rebalance %s: %w", f.Name, err)
				}
				moved++
			}
		}
	}
	// Drop what the migration emptied (os.Remove leaves non-empty dirs),
	// never the root itself or a directory a current shard lives in.
	current := make(map[string]bool, s.shards)
	for i := 0; i < s.shards; i++ {
		current[s.shardDir(i)] = true
	}
	for _, d := range dirs {
		if current[d] {
			continue
		}
		os.Remove(filepath.Join(d, "repo"))
		os.Remove(filepath.Join(d, "users"))
		if d != s.root {
			os.Remove(d)
		}
	}
	if conflicts != nil {
		return moved, &ConflictError{Paths: conflicts}
	}
	return moved, nil
}

// sameContents reports whether files a and b hold the same bytes.
func sameContents(a, b string) (bool, error) {
	x, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	y, err := os.ReadFile(b)
	return bytes.Equal(x, y), err
}

// ConflictError names the files Rebalance found at both their old and
// their new location with different bytes; the old-location copies were
// set aside, nothing was overwritten, so a caller may serve on and leave
// merging the histories to an operator.
type ConflictError struct{ Paths []string }

func (e *ConflictError) Error() string {
	return fmt.Sprintf("snapshot: rebalance set aside %d copies that differ from the served ones: %s",
		len(e.Paths), strings.Join(e.Paths, ", "))
}

// --- shared helpers -----------------------------------------------------------

// sortFiles orders files by base name, matching ReadDir's order within
// a single directory so enumerations agree whatever the shard count.
func sortFiles(files []StoredFile) {
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
}

// checkPlaceName rejects names that could escape the store's
// directories (shared by Place and Import).
func checkPlaceName(kind, name string) error {
	switch kind {
	case KindArchive, KindEntities, KindURL, KindUser:
	default:
		return fmt.Errorf("snapshot: unknown file kind %q", kind)
	}
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("snapshot: unsafe file name %q", name)
	}
	return nil
}
