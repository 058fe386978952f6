package sched

import (
	"context"
	"sync"
	"time"

	"aide/internal/simclock"
)

// Drain is the host-lane executor shared by w3newer passes, AIDE server
// sweeps and scheduler ticks. It calls run once for every item and
// returns the items it never started, in input order, so the caller can
// account for them (canceled, requeued) instead of losing them.
//
// With width <= 1 the items run serially in input order and jitter is
// ignored: the paper's script-like sweep. Otherwise items are grouped
// into lanes by key, in first-appearance order: lanes run in parallel up
// to width, each lane runs its items serially, so a host is never probed
// by two requests at once. An item with key "" (a hostless pseudo-URL)
// forms a lane of its own. When jitter is positive, each keyed lane
// first sleeps Jitter(key, seed, jitter) on clock, so a sweep does not
// fire every host's first request at the same instant.
//
// Once ctx is done no lane or item is started; items already running
// finish under the same ctx.
func Drain[T any](ctx context.Context, clock simclock.Clock, width int, jitter time.Duration, seed int64,
	items []T, key func(T) string, run func(context.Context, T)) []T {
	if width <= 1 {
		for i, it := range items {
			if ctx.Err() != nil {
				return items[i:]
			}
			run(ctx, it)
		}
		return nil
	}

	type lane struct {
		key  string
		idxs []int
	}
	var lanes []*lane
	byKey := make(map[string]*lane)
	for i, it := range items {
		k := key(it)
		l := byKey[k]
		if l == nil || k == "" {
			l = &lane{key: k}
			lanes = append(lanes, l)
			if k != "" {
				byKey[k] = l
			}
		}
		l.idxs = append(l.idxs, i)
	}
	started := make([]bool, len(items))
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
launch:
	for _, l := range lanes {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break launch
		}
		wg.Add(1)
		go func(l *lane) {
			defer func() {
				<-sem
				wg.Done()
			}()
			if jitter > 0 && l.key != "" {
				if simclock.Sleep(ctx, clock, Jitter(l.key, seed, jitter)) != nil {
					return
				}
			}
			for _, i := range l.idxs {
				if ctx.Err() != nil {
					return
				}
				started[i] = true
				run(ctx, items[i])
			}
		}(l)
	}
	wg.Wait()
	var unstarted []T
	for i, it := range items {
		if !started[i] {
			unstarted = append(unstarted, it)
		}
	}
	return unstarted
}
