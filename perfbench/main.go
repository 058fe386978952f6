// Command perfbench is the AIDE repository's end-to-end benchmark. run.sh
// builds cmd/snapshotd, cmd/w3newer and this program from the checkout;
// perfbench seeds one workload from -seed, runs the programs as separate
// processes on loopback, verifies every response against truth it
// generated itself, and prints every metric by name with its unit. The
// last line of standard output is the JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 it
// also replays a sample of the workload in-process through each
// layer's public entry points, with spans around the calls, and reports
// the per-layer set. See README.md for the workloads, the metric map and
// the seeds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its whole set-up (seed,
// start, warm-up) and measures the program it started; setup_s is the
// median set-up, and the last set-up also serves the traced replay.
const setupReps = 3

// workload is one benchmark scenario. setup seeds fresh inputs and
// starts the program; run drives the measured window; replay is the
// traced in-process run; close stops everything setup started.
type workload interface {
	setup(ctx context.Context) error
	run(ctx context.Context, d time.Duration) (*outcome, error)
	replay(ctx context.Context, o *outcome) (*layerTimes, error)
	close()
}

var workloads = map[string]func(*env) workload{
	"view-hot":     newViewHot,
	"diff-cold":    newDiffCold,
	"ingest":       newIngest,
	"w3newer-pass": newW3newerPass,
}

// env is what every workload receives: where the binaries are, a private
// work directory, the seed, and the set-up phase log.
type env struct {
	bin  string
	work string
	seed int64
	rep  int // set-up repetition, for fresh directory names

	phases   []string // the current set-up's phases and their durations
	lastMark time.Time
}

// mark closes the current set-up phase under name.
func (e *env) mark(name string) {
	now := time.Now()
	e.phases = append(e.phases, fmt.Sprintf("%s %.3fs", name, now.Sub(e.lastMark).Seconds()))
	e.lastMark = now
}

// dir returns a fresh directory under the work area for this set-up.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.work, fmt.Sprintf("%s-%d", name, e.rep))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: view-hot, diff-cold, ingest or w3newer-pass")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
	bin := flag.String("bin", "", "directory holding the snapshotd and w3newer binaries")
	work := flag.String("work", "", "scratch directory for archives, hotlists and traces")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -bin, -work, -seconds > 0 and -trace 0|1\n", names())
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, mk, &env{bin: *bin, work: *work, seed: *seed}, *name,
		time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func names() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func run(ctx context.Context, mk func(*env) workload, e *env, name string, d time.Duration, traced bool) (*result, error) {
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)

	// Each set-up starts its own program process and is measured for an
	// equal share of the window: processes of one build differ from one
	// another (heap layout, scheduling) by more than one window's
	// sampling error, so the figures are medians over the processes.
	var w workload
	var setups []float64
	var windows []*outcome
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			w.close()
		}
		e.rep = rep
		w = mk(e)
		start := time.Now()
		e.phases, e.lastMark = nil, start
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total0, steal0 := machineTicks()
		o, err := w.run(ctx, d/setupReps)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s run: %w", name, err)
		}
		total1, steal1 := machineTicks()
		o.stealShare = ratio(steal1-steal0, total1-total0)
		windows = append(windows, o)
	}
	defer w.close()

	o := combine(windows)
	o.setupS = median(setups)
	o.e2e["setup_s"] = metric{o.setupS, "s"}
	o.charf("set-up x%d: %.3f s median of %.3f; last: %s", setupReps, o.setupS, setups, strings.Join(e.phases, ", "))
	o.report(os.Stdout, name, e.seed, ncpu())

	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.e2e,
	}
	if traced {
		lt, err := w.replay(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("%s traced replay: %w", name, err)
		}
		path := filepath.Join(filepath.Dir(e.work), "traces", fmt.Sprintf("%s-seed%d.json", name, e.seed))
		if err := lt.tr.save(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(lt.tr.spans), path)
		res.Metrics = perLayer(o, lt)
	}
	printMetrics(os.Stdout, res.Metrics)
	return res, nil
}

func ncpu() int { return runtime.NumCPU() }

func printMetrics(w *os.File, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "metric %-42s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
