// Command snapshotd runs the AIDE server: the snapshot facility's
// endpoints (/remember, /diff, /history, /co, /rlog, /rcsdiff), the
// integrated per-user reports (/report, /register, /seen), and the
// community What's-New page (/whatsnew). Server-side tracking sweeps run
// on a timer, checking every registered URL once per interval regardless
// of how many users want it (§8.3).
//
// Usage:
//
//	snapshotd [-addr :8080] [-data ./aide-data] [-config w3newer.cfg]
//	          [-shards 1] [-replicas addr,addr] [-replica-sync 1m]
//	          [-replica-repair-shards 1] [-replica-fail-threshold 3]
//	          [-replica-cooldown 1m] [-scrub-interval 0] [-scrub-rate 200]
//	          [-diffcache-max 33554432] [-prewarm 2] [-timemap-page 500]
//	          [-sweep 1h] [-sweep-workers 4] [-sweep-jitter 0] [-fixed fixed-urls.txt]
//	          [-sched] [-sched-min 15m] [-sched-max 168h] [-host-rps 1]
//	          [-jitter-seed 0] [-forms] [-auth] [-timeout 30s] [-req-timeout 2m]
//	          [-max-inflight 64] [-breaker-threshold 5] [-breaker-cooldown 5m]
//	          [-debug-addr :6060] [-log-level info]
//
// -shards N partitions the archive store across N shard directories by
// consistent hashing of the URL (1 = the flat layout, format-compatible
// with repositories from earlier versions). Opening an existing
// repository with a new shard count triggers a rebalance pass before
// serving. -replicas lists replica snapshotd base URLs the leader
// pushes per-shard deltas to, every -replica-sync, with a seeded
// anti-entropy sample of -replica-repair-shards shards each round
// (-jitter-seed drives the shard choice); /debug/shards reports
// per-shard population, replica lag, and each replica's health.
// -diffcache-max is the rendered-diff cache's byte budget (LRU-evicted,
// invalidated per URL on check-in); -prewarm sizes the worker pool that
// re-renders each page's hot revision pairs after a changed check-in so
// the first viewer hits the cache (0 disables pre-warming).
//
// Every archived URL is also served through the RFC 7089 Memento
// endpoints: /timegate (Accept-Datetime negotiation, 302 to the
// closest archived state), /timemap/link (application/link-format
// listing of all mementos, paged every -timemap-page entries), and
// /memento/<YYYYMMDDhhmmss>/<url> (the archived state itself, with
// Memento-Datetime and Link headers); /memento/diff?url=&from=&to=
// renders the HtmlDiff between the states nearest two datetimes.
//
// Self-healing: each replica carries a health state machine — after
// -replica-fail-threshold consecutive failed syncs it is marked down
// and costs one probe per -replica-cooldown instead of a full
// per-shard sync. Reads that hit a missing or corrupt archive are
// served by fetching the file from a healthy replica and repairing
// the local copy in place. -scrub-interval starts the background
// checksum scrubber, which re-reads one shard per pass (paced at
// -scrub-rate files per second), detects silent corruption against
// the checksums recorded at write time, quarantines damaged files,
// and restores them from replicas.
//
// -sched replaces the lockstep sweep loop with the continuous adaptive
// scheduler (internal/sched): every tracked URL carries its own
// next-due time, adapted between -sched-min and -sched-max by its
// observed change rate, with -host-rps bounding the request rate per
// host. Scheduler state (change-rate estimates and due times) persists
// in sched-state.json under -data, and the main listener gains
// /debug/sched. Without -sched, -sweep-jitter desynchronises the batch
// sweep's (shard, host) lanes by a deterministic per-lane phase offset.
//
// The main listener always exposes /debug/metrics (JSON registry
// snapshot), /metrics (the same registry as Prometheus text, including
// the per-endpoint RED series the middleware records for every route),
// /debug/traces (recent spans; ?trace=<id> filters to one trace,
// spanning processes joined via the traceparent header), and
// /debug/health (per-host circuit-breaker state and load-shedding gate
// occupancy). -debug-addr starts a second listener adding
// net/http/pprof; -log-level enables structured logs on stderr
// (debug|info|warn|error).
//
// Failure isolation: -breaker-threshold/-breaker-cooldown configure the
// per-host circuit breakers on outgoing checks; -max-inflight bounds
// incoming requests, shedding the excess with 503 + Retry-After;
// -sweep-workers polls that many hosts in parallel per shard in each
// sweep (URLs on one host stay serial within a shard).
//
// -timeout bounds each outgoing fetch (per retry attempt); -req-timeout
// bounds the total work one incoming HTTP request may trigger. An
// interrupt cancels the root context: the sweep loop stops between
// URLs, state is saved, and the HTTP server shuts down gracefully.
//
// -forms enables §8.4 form tracking (saved POST services under
// /form/save, /form/list, /form/invoke); -auth switches the facility to
// §4.2 authenticated mode (anonymous accounts via /account/new).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"aide/internal/aide"
	"aide/internal/breaker"
	"aide/internal/formreg"
	"aide/internal/memento"
	"aide/internal/obs"
	"aide/internal/robots"
	"aide/internal/sched"
	"aide/internal/snapshot"
	"aide/internal/w3config"
	"aide/internal/webclient"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "./aide-data", "data directory for archives and control files")
	configPath := flag.String("config", "", "polling-threshold configuration (Table 1 format)")
	shards := flag.Int("shards", 1, "shard directories partitioning the archive store (1 = flat layout)")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs for per-shard fan-out")
	replicaSync := flag.Duration("replica-sync", time.Minute, "interval between replica delta syncs")
	replicaRepair := flag.Int("replica-repair-shards", 1, "shards re-verified per sync cycle by the anti-entropy sample")
	replicaFailThreshold := flag.Int("replica-fail-threshold", 3, "consecutive failed syncs before a replica is marked down")
	replicaCooldown := flag.Duration("replica-cooldown", time.Minute, "how long a down replica rests before a single probe")
	scrubInterval := flag.Duration("scrub-interval", 0, "pause between checksum-scrub passes, one shard per pass (0 disables scrubbing)")
	scrubRate := flag.Int("scrub-rate", 200, "scrub pacing in files per second (0 = unpaced)")
	diffCacheMax := flag.Int64("diffcache-max", snapshot.DefaultDiffCacheMax, "rendered-diff cache budget in bytes (LRU-evicted)")
	timemapPage := flag.Int("timemap-page", memento.DefaultPageSize, "mementos per TimeMap page on the RFC 7089 endpoints")
	prewarm := flag.Int("prewarm", snapshot.DefaultPrewarmWorkers, "diff pre-warm workers rendering hot rev-pairs after each check-in (0 disables)")
	sweep := flag.Duration("sweep", time.Hour, "server-side tracking sweep interval (0 disables)")
	fixedPath := flag.String("fixed", "", "file of fixed-page URLs (one 'url title...' per line) archived on every change")
	enableForms := flag.Bool("forms", false, "enable saved-form (POST service) tracking")
	enableAuth := flag.Bool("auth", false, "require account authentication (anonymous accounts via /account/new)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-fetch timeout (each retry attempt; 0 = none)")
	reqTimeout := flag.Duration("req-timeout", 2*time.Minute, "deadline for the work behind one incoming HTTP request (0 = none)")
	sweepWorkers := flag.Int("sweep-workers", 4, "hosts polled in parallel per shard in each sweep (<=1 = serial)")
	sweepJitter := flag.Duration("sweep-jitter", 0, "max deterministic per-host phase offset at the start of each concurrent sweep (0 disables)")
	schedMode := flag.Bool("sched", false, "replace the sweep loop with the continuous adaptive scheduler")
	schedMin := flag.Duration("sched-min", 15*time.Minute, "scheduler: shortest polling interval for fast-changing pages")
	schedMax := flag.Duration("sched-max", 7*24*time.Hour, "scheduler: longest polling interval for stagnant pages")
	hostRPS := flag.Float64("host-rps", 1.0, "scheduler: max requests per second against any one host")
	jitterSeed := flag.Int64("jitter-seed", 0, "seed for deterministic jitter (scheduler phase spread and -sweep-jitter)")
	maxInflight := flag.Int("max-inflight", 64, "max simultaneous incoming HTTP requests before shedding with 503 (0 = unlimited)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive host failures before the circuit breaker opens (0 disables breakers)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Minute, "how long an open breaker rejects a host before probing again")
	debugAddr := flag.String("debug-addr", "", "optional second listener with /debug/metrics, /debug/traces, and net/http/pprof")
	logLevel := flag.String("log-level", "", "enable structured logs on stderr at this level (debug|info|warn|error)")
	flag.Parse()

	if *logLevel != "" {
		if err := obs.EnableLogging(os.Stderr, *logLevel); err != nil {
			log.Fatal("snapshotd: ", err)
		}
	}
	// Per-process span-id seed: a replica fan-out trace merges leader and
	// replica spans by trace id, so their span ids must not collide.
	obs.DefaultTracer.Seed = obs.SeedFromPID()
	if *debugAddr != "" {
		go func() {
			log.Printf("snapshotd: debug endpoints on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux()); err != nil {
				log.Printf("snapshotd: debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := webclient.New(&webclient.HTTPTransport{})
	client.Timeout = *timeout
	client.Retry = webclient.DefaultRetryPolicy()
	if *breakerThreshold > 0 {
		client.Breakers = breaker.NewSet(breaker.Config{
			FailureThreshold: *breakerThreshold,
			Cooldown:         *breakerCooldown,
		})
	}
	fac, err := snapshot.NewSharded(*dataDir, *shards, client, nil)
	if err != nil {
		log.Fatal("snapshotd: ", err)
	}
	fac.SetDiffCacheMax(*diffCacheMax)
	fac.EnablePrewarm(*prewarm)
	if *shards > 1 {
		moved, err := fac.Rebalance()
		if err != nil {
			log.Fatal("snapshotd: rebalance: ", err)
		}
		if moved > 0 {
			log.Printf("snapshotd: rebalanced %d files across %d shards", moved, *shards)
		}
	}
	cfg := loadConfig(*configPath)
	srv := aide.NewServer(fac, client, cfg, nil)
	srv.RequestTimeout = *reqTimeout
	srv.Concurrency = *sweepWorkers
	srv.MaxSimultaneous = *maxInflight
	srv.PhaseJitter = *sweepJitter
	srv.JitterSeed = *jitterSeed
	// robots.txt failures fail open, so one attempt is enough; retrying
	// with backoff would stall every sweep on hosts that are down.
	robotsClient := webclient.New(&webclient.HTTPTransport{})
	robotsClient.Timeout = *timeout
	srv.Robots = robots.NewCache(func(ctx context.Context, url string) (int, string, error) {
		info, err := robotsClient.Get(ctx, url)
		return info.Status, info.Body, err
	}, nil)

	if *enableForms {
		forms, err := formreg.New(*dataDir)
		if err != nil {
			log.Fatal("snapshotd: ", err)
		}
		srv.Forms = forms
		fac.Forms = forms
		log.Printf("snapshotd: form tracking enabled (%d saved forms)", len(forms.All()))
	}

	// Registrations and tracking state survive restarts.
	statePath := filepath.Join(*dataDir, "aide-state.json")
	if err := srv.LoadState(statePath); err != nil {
		log.Fatal("snapshotd: ", err)
	}

	if *fixedPath != "" {
		n, err := loadFixed(srv, *fixedPath)
		if err != nil {
			log.Fatal("snapshotd: ", err)
		}
		log.Printf("snapshotd: %d fixed pages loaded", n)
	}

	if *schedMode {
		schedStatePath := filepath.Join(*dataDir, "sched-state.json")
		sc, err := srv.StartSchedulerFromState(sched.Config{
			MinInterval:  *schedMin,
			MaxInterval:  *schedMax,
			HostRPS:      *hostRPS,
			Workers:      *sweepWorkers,
			Seed:         *jitterSeed,
			BreakerDefer: *breakerCooldown,
		}, schedStatePath)
		if err != nil {
			log.Printf("snapshotd: scheduler state: %v (starting fresh)", err)
		}
		sc.OnTick = func(st sched.TickStats) {
			if st.Polled == 0 && st.DeferredBreaker+st.DeferredPoliteness == 0 {
				return
			}
			log.Printf("snapshotd: sched tick: due=%d polled=%d changed=%d failed=%d deferred=%d queue=%d",
				st.Due, st.Polled, st.Changed, st.Failed,
				st.DeferredBreaker+st.DeferredPoliteness, st.Queue)
			if err := srv.SaveState(statePath); err != nil {
				log.Printf("snapshotd: saving state: %v", err)
			}
			if err := sc.SaveState(schedStatePath); err != nil {
				log.Printf("snapshotd: saving scheduler state: %v", err)
			}
		}
		go func() {
			if err := sc.Run(ctx); err != nil && err != context.Canceled {
				log.Printf("snapshotd: scheduler: %v", err)
			}
			if err := sc.SaveState(schedStatePath); err != nil {
				log.Printf("snapshotd: saving scheduler state: %v", err)
			}
			log.Print("snapshotd: scheduler stopped")
		}()
		log.Printf("snapshotd: continuous scheduler on %d URLs (intervals %v..%v, %g req/s per host)",
			sc.Len(), *schedMin, *schedMax, *hostRPS)
	} else if *sweep > 0 {
		go func() {
			for {
				stats := srv.TrackAll(ctx)
				log.Printf("snapshotd: sweep: %d distinct, %d checked, %d skipped, %d new versions, %d errors (%d degraded), %d discovered, %d canceled",
					stats.Distinct, stats.Checked, stats.Skipped, stats.NewVersions, stats.Errors, stats.Degraded, stats.Discovered, stats.Canceled)
				if err := srv.SaveState(statePath); err != nil {
					log.Printf("snapshotd: saving state: %v", err)
				}
				select {
				case <-time.After(*sweep):
				case <-ctx.Done():
					log.Print("snapshotd: sweep loop stopped")
					return
				}
			}
		}()
	}

	snapSrv := snapshot.NewServer(fac)
	snapSrv.RequestTimeout = *reqTimeout
	snapSrv.TimeMapPage = *timemapPage
	if *replicas != "" {
		repl := snapshot.NewReplicator(fac, client, strings.Split(*replicas, ","), *jitterSeed)
		repl.RepairShards = *replicaRepair
		repl.HealthConfig = breaker.Config{
			FailureThreshold: *replicaFailThreshold,
			Cooldown:         *replicaCooldown,
		}
		snapSrv.Replicator = repl
		// Reads that hit a missing or corrupt local file repair it from
		// a healthy replica; the scrubber uses the same source.
		fac.Failover = repl
		go repl.Run(ctx, *replicaSync)
		log.Printf("snapshotd: replicating %d shards to %d replicas every %v",
			fac.Shards(), len(repl.Replicas), *replicaSync)
	}
	if *scrubInterval > 0 {
		scrubber := &snapshot.Scrubber{Facility: fac, Interval: *scrubInterval, RatePerSec: *scrubRate}
		snapSrv.Scrubber = scrubber
		go scrubber.Run(ctx)
		log.Printf("snapshotd: checksum scrub every %v (%d files/s)", *scrubInterval, *scrubRate)
	}
	if *enableAuth {
		accounts, err := snapshot.OpenAccounts(*dataDir)
		if err != nil {
			log.Fatal("snapshotd: ", err)
		}
		snapSrv.Accounts = accounts
		log.Printf("snapshotd: authentication enabled (%d accounts)", accounts.Len())
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(snapSrv)}
	go func() {
		<-ctx.Done()
		log.Print("snapshotd: shutting down")
		if err := srv.SaveState(statePath); err != nil {
			log.Printf("snapshotd: saving state: %v", err)
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()
	log.Printf("snapshotd: serving on %s (data in %s)", *addr, *dataDir)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal("snapshotd: ", err)
	}
	log.Print("snapshotd: stopped")
}

func loadConfig(path string) *w3config.Config {
	if path == "" {
		cfg, err := w3config.ParseString("Default 1d\n")
		if err != nil {
			log.Fatal("snapshotd: ", err)
		}
		return cfg
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatal("snapshotd: ", err)
	}
	defer f.Close()
	cfg, err := w3config.Parse(f)
	if err != nil {
		log.Fatal("snapshotd: ", err)
	}
	return cfg
}

// loadFixed reads "url [title...]" lines into the fixed-page set.
func loadFixed(srv *aide.Server, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		url, title, _ := strings.Cut(line, " ")
		if title == "" {
			title = url
		}
		srv.AddFixed(url, strings.TrimSpace(title))
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if n == 0 {
		return 0, fmt.Errorf("no fixed URLs in %s", path)
	}
	return n, nil
}
