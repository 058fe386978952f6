package aide

import (
	"context"
	"sync"
	"testing"

	"aide/internal/websim"
)

// TestSweepRacingRememberNeverDoubleCommits: server sweeps and a user's
// Remember check in the same ever-changing page at once. Every
// revision either side acknowledges must be in the page's history, and
// no revision number may be acknowledged twice: two acknowledgements
// of one number mean one check-in silently overwrote the other.
func TestSweepRacingRememberNeverDoubleCommits(t *testing.T) {
	r := newRig(t, "Default 0\n")
	const url = "http://h/counter"
	r.web.Site("h").Page("/counter").SetDynamic(websim.CounterBody("Counter"))
	r.srv.AddFixed(url, "Counter")

	const rounds = 60
	var mu sync.Mutex
	acked := map[string]int{}
	ack := func(rev string) {
		mu.Lock()
		acked[rev]++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if r.srv.TrackAll(context.Background()).NewVersions == 1 {
				ack(r.srv.FixedChanges()[0].Rev)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res, err := r.fac.Remember(context.Background(), userA, url)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Changed {
				ack(res.Rev)
			}
		}
	}()
	wg.Wait()

	revs, _, err := r.fac.History(userA, url)
	if err != nil {
		t.Fatal(err)
	}
	inHistory := map[string]bool{}
	for _, rev := range revs {
		inHistory[rev.Num] = true
	}
	for rev, n := range acked {
		if n > 1 {
			t.Errorf("revision %s acknowledged %d times", rev, n)
		}
		if !inHistory[rev] {
			t.Errorf("acknowledged revision %s missing from history", rev)
		}
	}
	if len(acked) < rounds {
		t.Errorf("only %d revisions acknowledged over %d rounds per side", len(acked), rounds)
	}
}
