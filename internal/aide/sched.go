package aide

import (
	"context"
	"time"

	"aide/internal/sched"
)

// This file hooks the AIDE server up to the continuous polling
// scheduler (internal/sched). A scheduled server stops doing lockstep
// TrackAll sweeps: every tracked URL carries its own next-due time,
// adapted to its observed change rate, and the scheduler drains due
// URLs through trackOne, the same per-URL check a sweep makes, whose
// sched.Outcome (Changed iff a new revision was archived) feeds the
// estimator directly. TrackAll remains available as a one-shot ("check
// everything now") operation; snapshotd runs either through
// sched.Repeat.

// StartScheduler builds a continuous scheduler over the server's
// tracked URL set and attaches it: every currently tracked URL is
// scheduled, and URLs added later (Register, AddFixed, recursive
// discovery) join the schedule as they appear. The caller owns the
// returned scheduler's lifecycle — typically a sched.Repeat loop of
// its Step.
// Calling StartScheduler again replaces the attachment.
func (s *Server) StartScheduler(cfg sched.Config) *sched.Scheduler {
	sc, _ := s.StartSchedulerFromState(cfg, "")
	return sc
}

// StartSchedulerFromState is StartScheduler with persistence: saved
// estimator state at statePath (if any) is loaded before the tracked
// URLs are scheduled, so change rates and due times survive restarts.
// The scheduler is attached even when loading fails; the error only
// reports why history was discarded.
func (s *Server) StartSchedulerFromState(cfg sched.Config, statePath string) (*sched.Scheduler, error) {
	sc := sched.New(cfg)
	sc.Clock = s.Clock
	sc.Metrics = s.metrics()
	if s.Client != nil {
		sc.Breakers = s.Client.Breakers
	}
	sc.Poll = func(ctx context.Context, url string) sched.Outcome {
		return s.trackOne(ctx, url, new(SweepStats))
	}
	sc.Floor = func(url string) (time.Duration, bool) {
		th := s.Config.ThresholdFor(url)
		return th.Every, th.Never
	}
	var loadErr error
	if statePath != "" {
		loadErr = sc.LoadState(statePath)
	}
	s.scheduler.Store(sc)
	for _, u := range s.trackedURLs() {
		sc.Add(u)
	}
	return sc, loadErr
}

// Scheduler returns the attached scheduler, or nil when the server
// runs in batch-sweep mode.
func (s *Server) Scheduler() *sched.Scheduler { return s.scheduler.Load() }

// schedAdd hands a newly tracked URL to the scheduler, if one is
// attached. Callers must not hold s.mu (the scheduler takes its own
// lock and may consult the threshold config).
func (s *Server) schedAdd(url string) {
	if sc := s.scheduler.Load(); sc != nil {
		sc.Add(url)
	}
}
