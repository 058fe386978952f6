package snapshot

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"aide/internal/obs"
)

// This file implements the rest of §4.2's resource-utilization remedies:
// "The facility could also impose a limit on the number of simultaneous
// users, or replicate itself among multiple computers, as many W3
// services do."
//
//   - Gate wraps the HTTP handler with a concurrency limit: beyond
//     MaxSimultaneous requests, clients get 503 Service Unavailable
//     immediately rather than piling onto a saturated machine.
//
//   - Export/Import move the whole repository (archives, user control
//     files, entity sidecars) as one portable JSON dump; the per-shard
//     Replicator (replicator.go) pushes the same stream shard by shard
//     to a replica farm.

// Gate limits simultaneous requests to the wrapped handler. Shed
// requests get 503 plus a Retry-After hint, which webclient's
// RetryPolicy honours — overload turns into paced backoff instead of a
// retry storm.
type Gate struct {
	handler http.Handler
	slots   chan struct{}

	// RetryAfter is the pause advertised on shed requests; DefaultRetryAfter
	// when zero.
	RetryAfter time.Duration
	// Metrics receives the shed/admitted counters and the in-flight
	// gauge; obs.Default when nil.
	Metrics *obs.Registry

	mu       sync.Mutex
	rejected int
}

// DefaultRetryAfter is the Retry-After hint shed requests carry when
// the gate has no explicit setting.
const DefaultRetryAfter = 2 * time.Second

// NewGate wraps handler with a limit of max simultaneous requests
// (max <= 0 means unlimited).
func NewGate(handler http.Handler, max int) *Gate {
	g := &Gate{handler: handler}
	if max > 0 {
		g.slots = make(chan struct{}, max)
	}
	return g
}

// metrics returns the gate's registry (obs.Default when unset).
func (g *Gate) metrics() *obs.Registry {
	if g.Metrics != nil {
		return g.Metrics
	}
	return obs.Default
}

// ServeHTTP implements http.Handler.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.slots != nil {
		select {
		case g.slots <- struct{}{}:
			g.metrics().Gauge("gate.inflight").Add(1)
			defer func() {
				g.metrics().Gauge("gate.inflight").Add(-1)
				<-g.slots
			}()
		default:
			g.mu.Lock()
			g.rejected++
			g.mu.Unlock()
			g.metrics().Counter("gate.shed").Inc()
			ra := g.RetryAfter
			if ra <= 0 {
				ra = DefaultRetryAfter
			}
			secs := int(ra / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			http.Error(w, "facility busy; try again shortly", http.StatusServiceUnavailable)
			return
		}
	}
	g.metrics().Counter("gate.admitted").Inc()
	g.handler.ServeHTTP(w, r)
}

// Rejected reports how many requests the gate turned away.
func (g *Gate) Rejected() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rejected
}

// InFlight reports how many requests currently hold a slot.
func (g *Gate) InFlight() int {
	if g.slots == nil {
		return 0
	}
	return len(g.slots)
}

// Capacity reports the gate's slot limit (0 = unlimited).
func (g *Gate) Capacity() int {
	if g.slots == nil {
		return 0
	}
	return cap(g.slots)
}

// dumpFile is one repository file in an export or shard-delta stream.
type dumpFile struct {
	// Kind is "archive", "entities", "url", or "user".
	Kind string `json:"kind"`
	// Name is the file's base name on disk.
	Name string `json:"name"`
	// Data is the raw file content (empty for deletes).
	Data string `json:"data,omitempty"`
	// Delete marks an anti-entropy removal: the named file exists on the
	// receiver but not on the leader, and must go.
	Delete bool `json:"delete,omitempty"`
}

// Export writes the whole repository as a JSON stream of files, in an
// order independent of the store layout (a sharded store exports
// byte-identically to the flat equivalent). The snapshot is not atomic
// across files; replicate from a quiesced leader or tolerate a torn
// tail (each file itself is written atomically).
func (f *Facility) Export(w io.Writer) error {
	files, err := f.store.Files()
	if err != nil {
		return err
	}
	return f.exportFiles(w, files)
}

// ExportShard writes one shard's files as a dump stream. A non-nil
// names set restricts the dump to those base names — the delta form the
// replicator pushes after a manifest comparison.
func (f *Facility) ExportShard(w io.Writer, shard int, names map[string]bool) error {
	files, err := f.store.ShardFiles(shard)
	if err != nil {
		return err
	}
	if names != nil {
		kept := files[:0]
		for _, sf := range files {
			if names[sf.Name] {
				kept = append(kept, sf)
			}
		}
		files = kept
	}
	return f.exportFiles(w, files)
}

func (f *Facility) exportFiles(w io.Writer, files []StoredFile) error {
	enc := json.NewEncoder(w)
	for _, sf := range files {
		data, err := os.ReadFile(sf.Path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // deleted between listing and read
			}
			return err
		}
		if f.suspectContent(sf, data) {
			f.metrics().Counter("replica.push.suspect").Inc()
			continue
		}
		if err := enc.Encode(dumpFile{Kind: sf.Kind, Name: sf.Name, Data: string(data)}); err != nil {
			return err
		}
	}
	return nil
}

// suspectContent reports whether a file's bytes contradict its checksum
// ledger entry — the signature of bit rot the scrubber has not repaired
// yet. Suspect files are withheld from every export stream: the leader's
// manifest diff would otherwise push rotted bytes over the replicas'
// good copies within one sync cycle (the manifest hashes content, so rot
// looks like a legitimate update), destroying the very copies the
// scrubber repairs from. Withholding is cheap to be wrong about: a racing
// legitimate write just lags one sync cycle, and the file keeps showing
// in lag_files until the scrubber settles it.
func (f *Facility) suspectContent(sf StoredFile, data []byte) bool {
	if f.ledger == nil {
		return false
	}
	e, ok := f.ledger.get(sf.Shard, sf.Kind, sf.Name)
	if !ok {
		return false
	}
	return e.Hash != contentHash(data)
}

// suspectMissing reports whether a file absent from the leader's disk
// is missing by accident rather than deleted on purpose: every
// legitimate removal path tombstones the ledger, so a surviving live
// entry means the file was lost. Such names are withheld from the drop
// half of the sync delta — the replica's copy is the scrubber's repair
// source, not garbage to propagate the loss to.
func (f *Facility) suspectMissing(kind, name string) bool {
	if f.ledger == nil {
		return false
	}
	shard, err := f.store.ShardOfFile(kind, name)
	if err != nil {
		return false
	}
	_, ok := f.ledger.get(shard, kind, name)
	return ok
}

// Import installs an Export (or shard-delta) stream into this facility,
// overwriting files with the same names and honouring delete entries.
// The store decides where each file lands, so a dump taken from a flat
// leader imports correctly into a sharded replica and vice versa.
// Unknown kinds and unsafe names are rejected.
func (f *Facility) Import(r io.Reader) (files int, err error) {
	archives := false
	defer func() {
		if archives {
			// Imported archives may differ from whatever local copies the
			// cached diffs rendered from; the stream names files, not
			// URLs, so drop the whole cache.
			f.invalidateDiffCacheAll()
		}
	}()
	dec := json.NewDecoder(r)
	for {
		var df dumpFile
		if err := dec.Decode(&df); err == io.EOF {
			return files, nil
		} else if err != nil {
			return files, fmt.Errorf("snapshot: corrupt export stream: %v", err)
		}
		if df.Kind == KindArchive {
			archives = true
		}
		if df.Delete {
			if err := f.store.Remove(df.Kind, df.Name); err != nil {
				return files, err
			}
			f.dropChecksum(df.Kind, df.Name)
			files++
			continue
		}
		path, err := f.store.Place(df.Kind, df.Name)
		if err != nil {
			return files, err
		}
		if err := f.writeStored(path, []byte(df.Data)); err != nil {
			return files, err
		}
		f.recordChecksum(df.Kind, df.Name, []byte(df.Data))
		files++
	}
}

// shardParam parses the shard query parameter and bounds-checks it.
func (s *Server) shardParam(r *http.Request) (int, error) {
	v := r.URL.Query().Get("shard")
	if v == "" {
		return 0, fmt.Errorf("missing shard parameter")
	}
	shard, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad shard parameter %q", v)
	}
	if shard < 0 || shard >= s.Facility.Shards() {
		return 0, fmt.Errorf("no shard %d (store has %d)", shard, s.Facility.Shards())
	}
	return shard, nil
}

// handleShardManifest serves one shard's manifest for replica
// comparison (the anti-entropy protocol's cheap first round trip).
func (s *Server) handleShardManifest(w http.ResponseWriter, r *http.Request) {
	shard, err := s.shardParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := s.Facility.ShardManifest(shard)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}

// handleShardExport streams one shard's dump. Repeated name parameters
// restrict it to exactly those base names — the form failover repair
// uses, safe for names containing commas (every archive does: "x,v").
// The legacy names parameter (comma-separated) is still honoured.
func (s *Server) handleShardExport(w http.ResponseWriter, r *http.Request) {
	shard, err := s.shardParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var names map[string]bool
	if vs := r.URL.Query()["name"]; len(vs) > 0 {
		names = make(map[string]bool)
		for _, n := range vs {
			names[n] = true
		}
	}
	if v := r.URL.Query().Get("names"); v != "" {
		if names == nil {
			names = make(map[string]bool)
		}
		for _, n := range strings.Split(v, ",") {
			names[n] = true
		}
	}
	w.Header().Set("Content-Type", exportContentType)
	if err := s.Facility.ExportShard(w, shard, names); err != nil {
		fmt.Fprintf(w, "\nEXPORT ERROR: %s\n", err)
	}
}

// handleShardImport installs a pushed delta stream — the replica side
// of the leader's fan-out.
func (s *Server) handleShardImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	n, err := s.Facility.Import(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.Facility.metrics().Counter("replica.import.files").Add(int64(n))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"files\": %d}\n", n)
}

// ShardsStatus is the /debug/shards payload: the store's partitioning
// and each replica's replication health.
type ShardsStatus struct {
	// Shards is the store's shard count (1 = flat).
	Shards int `json:"shards"`
	// PerShard lists each shard's archive population.
	PerShard []ShardStat `json:"per_shard"`
	// Replicas reports replication health when a replicator is wired.
	Replicas []ReplicaStatus `json:"replicas,omitempty"`
	// Scrub reports checksum-scrub progress when a scrubber is wired.
	Scrub *ScrubStatus `json:"scrub,omitempty"`
}

// handleDebugShards reports per-shard archive counts/bytes and replica
// lag.
func (s *Server) handleDebugShards(w http.ResponseWriter, r *http.Request) {
	stats, err := s.Facility.ShardStats()
	if err != nil {
		httpError(w, err)
		return
	}
	st := ShardsStatus{Shards: s.Facility.Shards(), PerShard: stats}
	if s.Replicator != nil {
		st.Replicas = s.Replicator.Status()
	}
	if s.Scrubber != nil {
		ss := s.Scrubber.Status()
		st.Scrub = &ss
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
