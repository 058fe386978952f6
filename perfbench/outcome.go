package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// outcome is what one measured window produced: the primary operation's
// latencies, every endpoint's samples for the characterisation, the
// verification tally, resource accounting, and the program's own counter
// deltas over the window.
type outcome struct {
	op        string            // what one primary operation is, for the report
	opSpan    string            // replay span timing the same operation in-process ("" = every op.* span)
	opMs      []float64         // client-observed latency of each primary op
	opAt      []float64         // and when it completed, in seconds into the window
	opSteal   []float64         // and the share of machine CPU stolen while it ran
	slices    []slice           // the window's steal-accounting slices (closed loops)
	workPerOp float64           // when > 0, ops_per_s is this much work per second of op time
	e2e       map[string]metric // combined end-to-end figures (set by combine)
	window    float64           // measured seconds

	attempted, failed int64
	endpoints         map[string]*epStat
	errs              []string

	setupS     float64
	programCPU float64 // seconds of program CPU in the window
	clientCPU  float64 // seconds of this process's CPU in the window
	peakRSSMB  float64
	stealShare float64 // share of machine CPU time the hypervisor gave other guests
	programOps float64 // operations the program served, for cpu_ms_per_op

	// counters are program counter deltas over the window (snapshotd's
	// /debug/metrics, or w3newer's per-pass metrics line summed).
	counters map[string]float64
	reads    float64 // read requests snapshotd served in the window
	writes   float64 // /remember writes in the window

	storedPerUserByte float64
	getShare          float64 // w3newer-pass: GET share of page checks
	robotsPerPass     float64 // w3newer-pass: robots.txt fetches per pass

	char []string // workload characterisation lines
}

type epStat struct {
	n, failed int64
	ms        []float64
}

func (o *outcome) add(s sample) {
	if o.endpoints == nil {
		o.endpoints = map[string]*epStat{}
	}
	st := o.endpoints[s.ep]
	if st == nil {
		st = &epStat{}
		o.endpoints[s.ep] = st
	}
	st.n++
	st.ms = append(st.ms, s.ms)
	o.attempted++
	if s.err != "" {
		st.failed++
		o.failed++
		if len(o.errs) < 8 {
			o.errs = append(o.errs, s.ep+": "+s.err)
		}
	}
	if s.primary {
		o.opMs = append(o.opMs, s.ms)
		o.opAt = append(o.opAt, s.at)
		o.opSteal = append(o.opSteal, s.steal)
	}
}

func (o *outcome) charf(format string, args ...any) {
	o.char = append(o.char, fmt.Sprintf(format, args...))
}

// saturated flags a window in which this process (load generator and
// simulated web), not the program, was the likely bottleneck: it used
// more than half the machine's CPU.
func (o *outcome) clientShare(ncpu int) float64 {
	if o.window <= 0 || ncpu <= 0 {
		return 0
	}
	return o.clientCPU / (o.window * float64(ncpu))
}

// calmQuantile is the share of the window, least disturbed first, that
// the end-to-end figures are computed over (at least): a quarter of a
// closed loop's thousands of operations, half of the few dozen w3newer
// passes of a run.
func (o *outcome) calmQuantile() float64 {
	if o.workPerOp > 0 {
		return 0.5
	}
	return 0.25
}

// calm computes the primary operation's latency percentiles and rate
// over the least-disturbed part of the window. The machine is a shared
// two-CPU guest: in slices where the hypervisor ran other guests on our
// CPUs, latency and throughput measure the neighbours, not the program.
// So only operations whose steal share is at most the calmQuantile
// quantile of all operations' steal shares count, and the rate is taken
// over the slices whose steal is at most that quantile of the slices'.
// On a quiet machine both cuts are 0% steal: most operations and most of
// the window count.
//
// The tail reported is p90, not p99: on a shared two-CPU virtual machine
// the p99 of a quiet window and of a window with 10% steal differed by 2x
// even after the cut, while p90 (where view-hot's timegate ops sit) held.
func (o *outcome) calm() (p50, p90, rate float64, kept float64) {
	cut := quantile(o.opSteal, o.calmQuantile())
	var ms []float64
	var busy float64
	for i, m := range o.opMs {
		if o.opSteal[i] <= cut {
			ms = append(ms, m)
			busy += m / 1000
		}
	}
	sort.Float64s(ms)
	p50, p90 = percentile(ms, 0.5), percentile(ms, 0.9)
	kept = ratio(float64(len(ms)), float64(len(o.opMs)))
	if o.workPerOp > 0 {
		// Sequential whole-program runs: work per second of run time.
		return p50, p90, ratio(o.workPerOp*float64(len(ms)), busy), kept
	}
	var steals []float64
	for _, s := range o.slices {
		steals = append(steals, s.steal)
	}
	sliceCut := quantile(steals, o.calmQuantile())
	var n, secs float64
	for _, s := range o.slices {
		if s.steal > sliceCut {
			continue
		}
		secs += s.to - s.from
		for _, at := range o.opAt {
			if at > s.from && at <= s.to {
				n++
			}
		}
	}
	return p50, p90, ratio(n, secs), kept
}

// endToEnd is one window's end-to-end figures, set-up time aside.
func (o *outcome) endToEnd() map[string]metric {
	p50, p90, rate, _ := o.calm()
	return map[string]metric{
		"op_p50_ms":           {p50, "ms"},
		"op_p90_ms":           {p90, "ms"},
		"ops_per_s":           {rate, "1/s"},
		"program_peak_rss_mb": {o.peakRSSMB, "MiB"},
	}
}

// combine merges the windows measured on separate program processes:
// each end-to-end figure is the median of the windows' figures (pooled
// for w3newer passes); samples, counts and CPU add up; the windows'
// timelines are laid end to end.
func combine(ws []*outcome) *outcome {
	o := &outcome{op: ws[0].op, opSpan: ws[0].opSpan, workPerOp: ws[0].workPerOp,
		counters: map[string]float64{}, endpoints: map[string]*epStat{}, e2e: map[string]metric{}}
	per := map[string][]float64{}
	var lines []string
	for _, w := range ws {
		m := w.endToEnd()
		for k, v := range m {
			per[k] = append(per[k], v.Value)
			o.e2e[k] = metric{Unit: v.Unit}
		}
		lines = append(lines, fmt.Sprintf("p50 %.3f ms, p90 %.3f ms, %.1f/s, rss %.1f MiB, steal %.1f%%",
			m["op_p50_ms"].Value, m["op_p90_ms"].Value, m["ops_per_s"].Value, m["program_peak_rss_mb"].Value, 100*w.stealShare))
		for _, at := range w.opAt {
			o.opAt = append(o.opAt, o.window+at)
		}
		for _, s := range w.slices {
			o.slices = append(o.slices, slice{from: o.window + s.from, to: o.window + s.to, steal: s.steal})
		}
		o.opMs = append(o.opMs, w.opMs...)
		o.opSteal = append(o.opSteal, w.opSteal...)
		o.window += w.window
		o.attempted += w.attempted
		o.failed += w.failed
		for ep, st := range w.endpoints {
			c := o.endpoints[ep]
			if c == nil {
				c = &epStat{}
				o.endpoints[ep] = c
			}
			c.n += st.n
			c.failed += st.failed
			c.ms = append(c.ms, st.ms...)
		}
		o.errs = append(o.errs, w.errs...)
		for k, v := range w.counters {
			o.counters[k] += v
		}
		o.programCPU += w.programCPU
		o.clientCPU += w.clientCPU
		o.programOps += w.programOps
		o.reads += w.reads
		o.writes += w.writes
		o.stealShare += w.stealShare / float64(len(ws))
		o.storedPerUserByte += w.storedPerUserByte / float64(len(ws))
		o.getShare += w.getShare / float64(len(ws))
		o.robotsPerPass += w.robotsPerPass / float64(len(ws))
	}
	for k, vs := range per {
		o.e2e[k] = metric{median(vs), o.e2e[k].Unit}
	}
	if o.workPerOp > 0 {
		// Every w3newer pass is a process of its own already: pool the
		// passes of all windows rather than take medians of a few each.
		rss := o.e2e["program_peak_rss_mb"]
		o.e2e = o.endToEnd()
		o.e2e["program_peak_rss_mb"] = rss
	}
	o.peakRSSMB = o.e2e["program_peak_rss_mb"].Value
	o.char = append(ws[len(ws)-1].char, "windows (one program process each; figures are their medians): "+strings.Join(lines, "; "))
	if len(o.errs) > 8 {
		o.errs = o.errs[:8]
	}
	return o
}

func (o *outcome) report(w io.Writer, name string, seed int64, ncpu int) {
	fmt.Fprintf(w, "workload %s seed %d: %.2fs window, one op = %s\n", name, seed, o.window, o.op)
	for _, c := range o.char {
		fmt.Fprintf(w, "  %s\n", c)
	}
	eps := make([]string, 0, len(o.endpoints))
	for ep := range o.endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	fmt.Fprintf(w, "  %-16s %8s %7s %7s %10s %10s\n", "endpoint", "ops", "share", "failed", "p50_ms", "p99_ms")
	for _, ep := range eps {
		st := o.endpoints[ep]
		sorted := append([]float64(nil), st.ms...)
		sort.Float64s(sorted)
		fmt.Fprintf(w, "  %-16s %8d %6.1f%% %7d %10.3f %10.3f\n", ep, st.n,
			100*float64(st.n)/float64(max(o.attempted, 1)), st.failed,
			percentile(sorted, 0.5), percentile(sorted, 0.99))
	}
	fmt.Fprintf(w, "  error_rate %.6f (%d failed of %d attempted)\n", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	for _, e := range o.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	share := o.clientShare(ncpu)
	flag := "ok"
	if share > 0.5 {
		flag = "SATURATED: the load generator, not the program, may have been the bottleneck"
	}
	fmt.Fprintf(w, "  cpu: program %.2fs, client %.2fs over %d cpus; client.cpu_share %.3f (%s); stolen by other guests %.1f%%\n",
		o.programCPU, o.clientCPU, ncpu, share, flag, 100*o.stealShare)
	all := append([]float64(nil), o.opMs...)
	sort.Float64s(all)
	p50, p90, rate, kept := o.calm()
	fmt.Fprintf(w, "  primary ops, all: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, %.1f/s over the windows; least-disturbed %.0f%% (steal <= %.1f%%): p50 %.3f ms, p90 %.3f ms, ops_per_s %.1f\n",
		percentile(all, 0.5), percentile(all, 0.9), percentile(all, 0.99), float64(len(all))/o.window,
		100*kept, 100*quantile(o.opSteal, o.calmQuantile()), p50, p90, rate)
	fmt.Fprintf(w, "  program peak rss %.1f MiB; stored bytes per user byte %.4f\n", o.peakRSSMB, o.storedPerUserByte)
}

// percentile is the linearly interpolated sample percentile of sorted
// values; 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	lo := int(math.Floor(rank))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (rank-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is percentile over an unsorted sample.
func quantile(vs []float64, q float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return percentile(sorted, q)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
