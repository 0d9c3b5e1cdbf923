// Command perfbench is soferr's benchmark: one process that runs one
// workload end to end, checks every answer, and prints its metrics.
//
//	bash perfbench/run.sh --workload serve-hit --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (set-up time, round
// wall and CPU time, throughput, latency percentiles, success rate,
// peak RSS). With --trace 1 it runs the workload untraced and then
// traced for half the time each, replays each layer's calls with spans
// around them, writes the spans under --out, and prints the per-layer
// metrics. Both modes end
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// See README.md for what each workload and metric means.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a plain run sets its workload up; setup_s
// is their median.
const setups = 5

// bench is a workload that has been set up and can be measured.
type bench interface {
	// run measures the workload for d, recording a span around every
	// layer call when rec is non-nil.
	run(ctx context.Context, d time.Duration, rec *recorder) (phase, error)
	close()
}

// workload names a benchmark workload and how to set it up.
type workload struct {
	name  string
	setup func(ctx context.Context, seed uint64) (bench, error)
	// procs, when non-zero, is the GOMAXPROCS the workload runs with.
	procs int
}

// The serve workloads run on one P. The client goroutine, the handler
// and the transport then hand off on one thread. With a second P, each
// hand-off woke a parked thread on the other vCPU. The cost of that
// wake-up follows the load on the shared host, and it moved
// latency_p50_ms further than the CPU time per request.
var workloads = []workload{
	{"repro", setupRepro, 0},
	{"serve-hit", setupServeHit, 1},
	{"serve-miss", setupServeMiss, 1},
}

// phase is what one timed run of a workload measured.
type phase struct {
	// rounds are the completed fixed-size units of work: one
	// reproduction, or a fixed number of requests.
	rounds []round
	// requests marks a serve phase; windows are its latency windows.
	requests bool
	windows  []window
	// attempted and failed count operations; a failure is an error, a
	// non-200 status, or an answer that fails its correctness check.
	attempted, failed int
	elapsed           time.Duration
	// runtime is the Go runtime's activity over the phase.
	runtime runtimeDelta
}

type round struct{ wall, cpu float64 }

// latencyWindow is how many consecutive requests of one client share a
// set of latency percentiles: enough for ten samples beyond the p99.
const latencyWindow = 1000

// window holds the nearest-rank percentiles, in ms, of one latency
// window.
type window struct{ p50, p99 float64 }

// newWindow takes the percentiles of one full window of latencies.
func newWindow(ms []float32) (window, error) {
	p50, err := percentile(ms, 0.50)
	if err != nil {
		return window{}, err
	}
	p99, err := percentile(ms, 0.99)
	return window{p50, p99}, err
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: repro, serve-hit or serve-miss")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per timed phase")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if !(*seconds > 0) || (*traced != 0 && *traced != 1) {
		return errors.New("want --seconds > 0 and --trace 0 or 1")
	}
	d := time.Duration(*seconds * float64(time.Second))
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}

	st := newStamp(wl.name, *seed)
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(ctx, wl, *seed, d, *out)
	} else {
		res, err = plainRun(ctx, wl, *seed, d)
	}
	if err != nil {
		return err
	}
	return report(stdout, st, res)
}

// plainRun sets the workload up several times, then measures it once
// with tracing off and returns the end-to-end metrics.
func plainRun(ctx context.Context, wl *workload, seed uint64, d time.Duration) (result, error) {
	var (
		b       bench
		setupsS []float64
	)
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = wl.setup(ctx, seed); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setupsS = append(setupsS, time.Since(t0).Seconds())
	}
	defer b.close()
	resetPeakRSS()
	ph, err := b.run(ctx, d, nil)
	if err != nil {
		return result{}, err
	}
	m, err := endToEnd(wl.name, ph, median(setupsS))
	if err != nil {
		return result{}, err
	}
	return result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// endToEnd turns a measured phase into the end-to-end metrics.
func endToEnd(name string, ph phase, setupS float64) (map[string]metric, error) {
	if len(ph.rounds) == 0 || ph.attempted == 0 {
		return nil, fmt.Errorf("%s completed no round; raise --seconds", name)
	}
	walls := roundWalls(ph)
	cpus := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		cpus[i] = r.cpu
	}
	var p50, p99 float64
	ops := ph.attempted
	if ph.requests {
		// A host stall lands in one window; the median over windows
		// keeps it from moving the figure.
		if len(ph.windows) == 0 {
			return nil, fmt.Errorf("%s completed too few requests for latency_p99_ms: no client finished a window of %d", name, latencyWindow)
		}
		p50s := make([]float64, len(ph.windows))
		p99s := make([]float64, len(ph.windows))
		for i, w := range ph.windows {
			p50s[i], p99s[i] = w.p50, w.p99
		}
		p50, p99 = median(p50s), median(p99s)
	} else {
		// repro has no request stream, and percentiles over its twelve
		// unlike experiments would only name the slowest one. Its
		// latency is that of a whole reproduction, and a dozen of them
		// support no tail percentile, so both figures carry the median.
		p50 = median(walls) * 1e3
		p99 = p50
		ops = len(ph.rounds)
	}
	return map[string]metric{
		"wall_s":         {median(walls), "s"},
		"cpu_s":          {median(cpus), "s"},
		"throughput_rps": {float64(ops) / ph.elapsed.Seconds(), "1/s"},
		"latency_p50_ms": {p50, "ms"},
		"latency_p99_ms": {p99, "ms"},
		"success_rate":   {float64(ph.attempted-ph.failed) / float64(ph.attempted), "ratio"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"setup_s":        {setupS, "s"},
	}, nil
}

// report prints the stamp, one line per metric, and the result line.
func report(w io.Writer, st stamp, res result) error {
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stamp %s\n", stampJSON)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
