// Command w3newer is AIDE's modification tracker (§3), intended to run
// periodically (a crontab entry in the paper): it reads the user's
// hotlist and browser history, checks which pages have changed since the
// user last saw them — skipping checks its thresholds and caches make
// unnecessary — and writes an HTML report with Remember / Diff / History
// links into the snapshot facility.
//
// Usage:
//
//	w3newer -hotlist bookmarks.html [-history history.txt]
//	        [-config w3newer.cfg] [-priorities priorities.cfg]
//	        [-state state.json]
//	        [-snapshot http://host/snapshot] [-user you@example.com]
//	        [-prioritize] [-ignore-robots] [-errors-as-checked]
//	        [-timeout 30s] [-retries 3] [-deadline 0] [-workers 1]
//	        [-breaker-threshold 5] [-breaker-cooldown 5m]
//	        [-every 1h] [-passes N] [-o report.html]
//	        [-debug-addr :6060] [-log-level info]
//
// -debug-addr starts an HTTP listener with /debug/metrics,
// /debug/traces, and net/http/pprof for inspecting a long-running
// daemon; -log-level enables structured logs on stderr
// (debug|info|warn|error). After each pass a metrics summary line is
// printed to stderr.
//
// With -every, w3newer runs as its own periodic daemon instead of
// relying on cron: a pass every interval, regenerating the report each
// time. With -daemon, a continuous scheduler (internal/sched) replaces
// lockstep passes: every hotlist URL gets its own next-due time,
// adapted to its observed change rate between -sched-min and
// -sched-max (Table 1 thresholds stay as floors), hosts are polled
// politely at -host-rps, and hosts whose circuit breaker is open are
// deferred. Both are one loop (sched.Repeat) of rounds: a round is one
// pass, or one scheduler tick with URLs due, and each round saves
// state, regenerates the report and prints the metrics line. -passes bounds the rounds (0 means forever).
//
// The report always judges a page against the user's last visit. The
// scheduler learns from what each poll observed against the previous
// poll (tracker.Result.Observed), so a change the user has not seen
// stays in the report however often it is polled. Every poll checks
// the page itself (tracker.PollEntry): the Table 1 threshold spaces
// polls as the schedule's floor instead of answering from the state
// cache. Scheduler state
// (rate estimates, next-due times) persists in <state>.sched, and the
// -daemon metrics line includes the sched.* queue and deferral
// counters. -phase-jitter spreads host starts of batch passes by a
// deterministic per-host offset.
//
// An interrupt (SIGINT/SIGTERM) cancels the run's context: in-flight
// checks stop, the remaining entries are reported as canceled, state is
// saved, and the round's partial report is still written.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"aide/internal/breaker"
	"aide/internal/hotlist"
	"aide/internal/obs"
	"aide/internal/robots"
	"aide/internal/sched"
	"aide/internal/simclock"
	"aide/internal/tracker"
	"aide/internal/w3config"
	"aide/internal/webclient"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
// Canceling ctx ends the run early with a partial report.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("w3newer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hotlistPath := fs.String("hotlist", "", "hotlist file (Netscape bookmarks or Mosaic hotlist)")
	historyPath := fs.String("history", "", "browser global-history file (NCSA format)")
	configPath := fs.String("config", "", "threshold configuration (Table 1 format); built-in defaults when absent")
	prioritiesPath := fs.String("priorities", "", "Tapestry-style priority file (pattern weight per line)")
	statePath := fs.String("state", "", "persistent state cache (JSON); enables cross-run skip logic")
	snapshotBase := fs.String("snapshot", "", "base URL of the snapshot facility for report links")
	user := fs.String("user", "", "identity passed to the snapshot facility")
	out := fs.String("o", "", "report output file (default stdout)")
	prioritize := fs.Bool("prioritize", false, "sort the report by priority instead of hotlist order")
	ignoreRobots := fs.Bool("ignore-robots", false, "bypass the robot exclusion protocol")
	errorsAsChecked := fs.Bool("errors-as-checked", false, "count failed checks against the polling threshold")
	skipBadHosts := fs.Bool("skip-bad-hosts", true, "skip a host's remaining URLs after a transport error")
	every := fs.Duration("every", 0, "repeat the pass on this interval (0 = single pass)")
	passes := fs.Int("passes", 0, "with -every or -daemon, stop after this many passes (0 = forever)")
	daemon := fs.Bool("daemon", false, "run the continuous adaptive scheduler instead of lockstep passes")
	schedMin := fs.Duration("sched-min", 15*time.Minute, "with -daemon, shortest adapted poll interval")
	schedMax := fs.Duration("sched-max", 7*24*time.Hour, "with -daemon, longest adapted poll interval")
	hostRPS := fs.Float64("host-rps", 1.0, "with -daemon, per-host politeness limit in requests/second")
	phaseJitter := fs.Duration("phase-jitter", 0, "spread each host's first request in a concurrent pass by a deterministic offset in [0, this)")
	jitterSeed := fs.Int64("jitter-seed", 0, "seed for deterministic jitter (phase offsets and scheduler spread)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout (each retry attempt; 0 = none)")
	retries := fs.Int("retries", 3, "attempts per request for transient failures")
	workers := fs.Int("workers", 1, "hosts checked in parallel per pass (<=1 = serial; one host's URLs stay serial)")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive host failures before the circuit breaker opens (0 disables breakers)")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Minute, "how long an open breaker rejects a host before probing again")
	deadline := fs.Duration("deadline", 0, "overall deadline per pass; a pass cut short reports the rest as canceled (0 = none)")
	debugAddr := fs.String("debug-addr", "", "optional HTTP listener with /debug/metrics, /debug/traces, and net/http/pprof")
	logLevel := fs.String("log-level", "", "enable structured logs on stderr at this level (debug|info|warn|error)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *hotlistPath == "" {
		fmt.Fprintln(stderr, "w3newer: -hotlist is required")
		fs.PrintDefaults()
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "w3newer:", err)
		return 1
	}

	if *logLevel != "" {
		if err := obs.EnableLogging(stderr, *logLevel); err != nil {
			return fail(err)
		}
	}
	// Per-process span-id seed, so traces that cross into another daemon
	// (traceparent propagation) merge without id collisions.
	obs.DefaultTracer.Seed = obs.SeedFromPID()
	// The mux reference is kept so daemon mode can mount /debug/sched
	// once the scheduler exists (ServeMux registration is safe after
	// the listener starts).
	var debugMux *http.ServeMux
	if *debugAddr != "" {
		debugMux = obs.DebugMux()
		go func() {
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				fmt.Fprintln(stderr, "w3newer: debug listener:", err)
			}
		}()
	}

	entries, err := loadHotlist(*hotlistPath)
	if err != nil {
		return fail(err)
	}
	hist, err := loadHistory(*historyPath)
	if err != nil {
		return fail(err)
	}
	cfg, err := loadConfig(*configPath)
	if err != nil {
		return fail(err)
	}

	client := webclient.New(&webclient.HTTPTransport{})
	client.Timeout = *timeout
	client.Retry = webclient.DefaultRetryPolicy()
	client.Retry.MaxAttempts = *retries
	if *breakerThreshold > 0 {
		client.Breakers = breaker.NewSet(breaker.Config{
			FailureThreshold: *breakerThreshold,
			Cooldown:         *breakerCooldown,
		})
	}
	tr := tracker.New(client, cfg, hist, nil)
	tr.Opt.TreatErrorsAsChecked = *errorsAsChecked
	tr.Opt.SkipHostAfterError = *skipBadHosts
	tr.Opt.IgnoreRobots = *ignoreRobots
	tr.Opt.Concurrency = *workers
	tr.Opt.PhaseJitter = *phaseJitter
	tr.Opt.JitterSeed = *jitterSeed
	// robots.txt failures fail open, so one attempt is enough; retrying
	// with backoff would stall every pass on hosts that are down.
	robotsClient := webclient.New(&webclient.HTTPTransport{})
	robotsClient.Timeout = *timeout
	tr.Robots = robots.NewCache(func(ctx context.Context, url string) (int, string, error) {
		info, err := robotsClient.Get(ctx, url)
		return info.Status, info.Body, err
	}, nil)

	if *statePath != "" {
		if err := tr.LoadState(*statePath); err != nil {
			fmt.Fprintln(stderr, "w3newer: warning:", err)
		}
	}

	opts := tracker.ReportOptions{
		SnapshotBase: *snapshotBase,
		User:         *user,
		Prioritize:   *prioritize,
	}
	if *prioritiesPath != "" {
		f, err := os.Open(*prioritiesPath)
		if err != nil {
			return fail(err)
		}
		prio, perr := tracker.ParsePriorities(f)
		f.Close()
		if perr != nil {
			return fail(perr)
		}
		opts.Prioritize = true
		opts.Score = prio.Score
	}

	// One round is one batch pass or, with -daemon, one scheduler tick
	// with URLs due; sched.Repeat runs the rounds until -passes, the
	// end of a single pass, or an interrupt.
	var sc *sched.Scheduler
	var polled map[string]tracker.Result // -daemon: latest result per URL
	var polledMu sync.Mutex
	if *daemon {
		sc = sched.New(sched.Config{
			MinInterval: *schedMin, MaxInterval: *schedMax, HostRPS: *hostRPS,
			Workers: *workers, Seed: *jitterSeed, BreakerDefer: *breakerCooldown,
		})
		sc.Breakers = client.Breakers
		sc.Floor = func(u string) (time.Duration, bool) {
			th := cfg.ThresholdFor(u)
			return th.Every, th.Never
		}
		entryByURL := make(map[string]hotlist.Entry, len(entries))
		polled = make(map[string]tracker.Result, len(entries))
		// The scheduler learns from what each poll observed against the
		// previous poll; the report keeps judging against the user's
		// last visit, so an unseen change stays reported.
		sc.Poll = func(ctx context.Context, url string) sched.Outcome {
			r := tr.PollEntry(ctx, entryByURL[url])
			polledMu.Lock()
			polled[url] = r
			polledMu.Unlock()
			return r.Observed
		}
		if *statePath != "" {
			if err := sc.LoadState(*statePath + ".sched"); err != nil {
				fmt.Fprintln(stderr, "w3newer: warning:", err)
			}
		}
		for _, e := range entries {
			if _, dup := entryByURL[e.URL]; !dup {
				entryByURL[e.URL] = e
				sc.Add(e.URL)
			}
		}
		if debugMux != nil {
			debugMux.Handle("/debug/sched", sc.DebugHandler())
		}
		fmt.Fprintf(stderr, "w3newer: daemon: scheduling %d URLs (min %v, max %v, %.3g req/s per host)\n",
			sc.Len(), *schedMin, *schedMax, *hostRPS)
	}

	rounds, code := 0, 0
	step := func() (time.Duration, bool) {
		var results []tracker.Result
		wait := *every
		if sc == nil {
			passCtx, cancel := ctx, context.CancelFunc(func() {})
			if *deadline > 0 {
				passCtx, cancel = context.WithTimeout(ctx, *deadline)
			}
			results = tr.Run(passCtx, entries)
			cancel()
		} else {
			var st sched.TickStats
			st, wait = sc.Step(ctx)
			if st.Due == 0 {
				return wait, true
			}
			polledMu.Lock()
			for _, e := range entries {
				if r, ok := polled[e.URL]; ok {
					r.Entry = e
					results = append(results, r)
				}
			}
			polledMu.Unlock()
			fmt.Fprintf(stderr, "w3newer: tick %d: due=%d polled=%d changed=%d deferred=%d queue=%d\n",
				rounds+1, st.Due, st.Polled, st.Outcomes[sched.Changed],
				st.DeferredBreaker+st.DeferredPoliteness, st.Queue)
		}
		rounds++
		if *statePath != "" {
			if err := tr.SaveState(*statePath); err != nil {
				fmt.Fprintln(stderr, "w3newer: warning: saving state:", err)
			}
			if sc != nil {
				if err := sc.SaveState(*statePath + ".sched"); err != nil {
					fmt.Fprintln(stderr, "w3newer: warning: saving scheduler state:", err)
				}
			}
		}
		opts.Now = time.Now()
		report := tracker.Report(results, opts)
		// Cumulative counters across rounds; the sweep summary (§3's
		// per-run accounting) goes to stderr so the report stays clean.
		fmt.Fprintf(stderr, "w3newer: metrics: %s\n",
			obs.Default.SummaryLine("sched.", "tracker.", "webclient.", "breaker.", "robots.", "proxycache."))
		if *out == "" {
			fmt.Fprint(stdout, report)
		} else if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			code = fail(err)
			return 0, false
		} else {
			sum := tracker.Summary(results)
			fmt.Fprintf(stderr, "w3newer: %d changed, %d unchanged, %d not checked, %d errors -> %s\n",
				sum[tracker.Changed], sum[tracker.Unchanged],
				sum[tracker.NotChecked]+sum[tracker.Excluded], sum[tracker.Failed], *out)
		}
		return wait, (sc != nil || *every > 0) && (*passes <= 0 || rounds < *passes)
	}
	if err := sched.Repeat(ctx, simclock.Wall{}, step); err != nil {
		fmt.Fprintln(stderr, "w3newer: interrupted; exiting")
	}
	if sc != nil {
		fmt.Fprintln(stderr, "w3newer: scheduler stopped")
	}
	return code
}

func loadHotlist(path string) ([]hotlist.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hotlist.Parse(f)
}

// loadHistory reads the browser history. The tracker itself takes a
// bookmark's LAST_VISIT when it is later (Netscape keeps last-visit
// times in the bookmark file).
func loadHistory(path string) (*hotlist.History, error) {
	if path == "" {
		return hotlist.NewHistory(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hotlist.ParseHistory(f)
}

func loadConfig(path string) (*w3config.Config, error) {
	if path == "" {
		return w3config.ParseString("Default 1d\nfile:.* 0\n")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return w3config.Parse(f)
}
