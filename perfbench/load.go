package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// sample is one completed client operation. err is empty when the
// operation succeeded and its response passed verification.
type sample struct {
	ep      string
	ms      float64
	primary bool
	at      float64 // completion, in seconds since the window opened
	steal   float64 // share of machine CPU stolen by other guests while it ran
	err     string
}

// nextOp draws one closed-loop client's next operation: the endpoint
// label, whether it is the workload's primary operation, and the
// function that issues and verifies it; a nil function ends the client.
type nextOp func() (ep string, primary bool, do func() error)

// worker builds one client's operation source around its own RNG.
type worker func(rng *rand.Rand) nextOp

// closedLoop runs one goroutine per worker, each issuing its next
// operation only after the previous one completed, until d has passed or
// ctx ends. Each client's RNG derives from seed, so the same seed issues
// the same operation sequence (timing decides only how far it gets).
//
// Alongside, it cuts the window into slices of sliceLen and records how
// much of each slice's machine CPU time the hypervisor gave to other
// guests; every sample carries the steal share of the slice it completed
// in.
func closedLoop(ctx context.Context, d time.Duration, seed int64, workers []worker) ([]sample, float64, []slice) {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	stop := make(chan struct{})
	sampled := make(chan []slice)
	go func() {
		var slices []slice
		from := 0.0
		total0, steal0 := machineTicks()
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for done := false; !done; {
			select {
			case <-tick.C:
			case <-stop:
				done = true
			}
			to := time.Since(start).Seconds()
			total1, steal1 := machineTicks()
			slices = append(slices, slice{from: from, to: to, steal: ratio(steal1-steal0, total1-total0)})
			from, total0, steal0 = to, total1, steal1
		}
		sampled <- slices
	}()
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := w(rand.New(rand.NewSource(seed*7919 + int64(i)*104729)))
			var local []sample
			for ctx.Err() == nil && time.Now().Before(deadline) {
				ep, primary, do := next()
				if do == nil {
					break // the worker has nothing more to do in this window
				}
				t0 := time.Now()
				err := do()
				s := sample{ep: ep, ms: float64(time.Since(t0)) / float64(time.Millisecond), primary: primary,
					at: time.Since(start).Seconds()}
				if err != nil {
					s.err = err.Error()
				}
				local = append(local, s)
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	close(stop)
	slices := <-sampled
	for i := range all {
		k := sort.Search(len(slices), func(k int) bool { return slices[k].to >= all[i].at })
		all[i].steal = slices[min(k, len(slices)-1)].steal
	}
	return all, window, slices
}

// sliceLen is the width of the steal-accounting slices of a window.
const sliceLen = 250 * time.Millisecond

// slice is one stretch of a measured window, in seconds since it
// opened, with the share of machine CPU time stolen during it.
type slice struct {
	from, to, steal float64
}

// fixedLoop runs n operations on each worker, unmeasured: the warm-up
// that leaves caches and connection pools as the measured window finds
// them. It returns the failed operations.
func fixedLoop(ctx context.Context, n int, seed int64, workers []worker) []sample {
	var mu sync.Mutex
	var failed []sample
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := w(rand.New(rand.NewSource(seed*6271 + int64(i)*15485863)))
			for k := 0; k < n && ctx.Err() == nil; k++ {
				ep, _, do := next()
				if do == nil {
					break
				}
				if err := do(); err != nil {
					mu.Lock()
					failed = append(failed, sample{ep: ep, err: "warm-up: " + err.Error()})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return failed
}

// client is the benchmark's HTTP client: one keep-alive pool shared by a
// redirect-following and a non-following face.
type client struct {
	follow, direct *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxIdleConns: 4 * conns, MaxIdleConnsPerHost: 2 * conns, IdleConnTimeout: time.Minute}
	return &client{
		follow: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		direct: &http.Client{Transport: tr, Timeout: 60 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }},
	}
}

func (c *client) close() { c.follow.Transport.(*http.Transport).CloseIdleConnections() }

// get issues one GET and returns the status, headers and whole body.
func (c *client) get(hc *http.Client, url string, hdr ...string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// ok200 is get plus the status check every read shares.
func (c *client) ok200(url string, hdr ...string) ([]byte, error) {
	status, _, body, err := c.get(c.follow, url, hdr...)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", status, body)
	}
	return body, nil
}

// counters scrapes a program's metric registry (/debug/metrics JSON).
func (c *client) counters(base string) (map[string]float64, error) {
	body, err := c.ok200(base + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("/debug/metrics: %w", err)
	}
	return snap.Counters, nil
}

func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
