// Command perfbench is the repository's benchmark. It boots the shipped
// serving stack in this process — merlinrouter in front of one durable
// merlind with its journal on local disk — drives one named workload through
// pkg/client in a closed loop, checks every answer, and prints the
// end-to-end metrics; with --trace 1 it instead prints the per-layer metrics
// of a traced run. See README.md in this directory for the workloads, the
// metrics and the recorded set-up.
//
// Usage:
//
//	bash perfbench/run.sh --workload cold-solve|warm-route|durable-jobs \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit code is 0 only when every answer was correct.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A run boots and prepares the stack at least minSetups times, and more
// while those set-ups took less than setupFor in all, up to maxSetups;
// setup_s is the median, and the last stack is the one measured. A boot
// alone takes about a millisecond and varies by several times from one to
// the next, so cold-solve and durable-jobs boot a few hundred times for a
// steady median; warm-route's set-up, which solves 512 nets, runs twice.
const (
	minSetups = 2
	maxSetups = 1000
	setupFor  = 500 * time.Millisecond
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	pin      int
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
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 25, "length of one measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root; the run's files go under <root>/.bench_build")
	flag.IntVar(&o.pin, "pin", 0, "instead of running, recompute the digests of the first N cold-solve nets of the default seed into golden.json")
	flag.Parse()
	o.trace = trace == 1
	if o.pin > 0 {
		if err := pinGolden(o.pin, filepath.Join(o.root, "perfbench", "golden.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(o, w)
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
	if !res.Correct {
		os.Exit(1)
	}
}

// run makes one untraced run (the end-to-end metrics) or one traced run (the
// per-layer metrics) of workload w.
func run(o options, w *workload) (*result, error) {
	b := &bench{opts: o, w: w, par: min(2, runtime.NumCPU())}
	base := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	defer os.RemoveAll(dir)
	fmt.Printf("perfbench: workload %s, seed %d, %ds window, %d clients, merlind workers %s, trace %v\n", w.name, o.seed, o.seconds, w.clients, w.workersName(), o.trace)
	if o.trace {
		return b.traced()
	}
	return b.untraced()
}

// bench is one run of one workload.
type bench struct {
	opts options
	w    *workload
	// par is how many goroutines the set-up and the checks after a window
	// use: nproc, at most 2.
	par   int
	dir   string
	boots int
}

// boot starts a fresh stack and prepares it for the workload, returning how
// long that took: the set-up a user of the workload pays.
func (b *bench) boot() (*stack, any, float64, error) {
	b.boots++
	start := time.Now()
	st, err := bootStack(filepath.Join(b.dir, fmt.Sprintf("stack-%d", b.boots)), b.w.workers)
	if err != nil {
		return nil, nil, 0, err
	}
	state, err := b.w.prepare(b, st)
	if err != nil {
		st.close()
		return nil, nil, 0, err
	}
	return st, state, time.Since(start).Seconds(), nil
}

func (b *bench) untraced() (*result, error) {
	var setupS []float64
	var st *stack
	var state any
	total := 0.0
	for len(setupS) < minSetups || (total < setupFor.Seconds() && len(setupS) < maxSetups) {
		if st != nil {
			st.close()
		}
		var sec float64
		var err error
		if st, state, sec, err = b.boot(); err != nil {
			return nil, err
		}
		setupS = append(setupS, sec)
		total += sec
	}
	ph, err := b.measure(st, state, false)
	st.close()
	if err != nil {
		return nil, err
	}
	for _, m := range ph.failures {
		fmt.Println("  FAILED:", m)
	}
	for _, m := range ph.wrong {
		fmt.Println("  WRONG:", m)
	}
	res := ph.outcome()
	ops, p50, tail, tailName, err := ph.latencyFigures(b.w)
	if err != nil {
		return nil, err
	}
	req, area := ph.qualityMeans()

	res.Metrics = map[string]metric{
		"setup_s":     {median(setupS), "s"},
		"ops_per_s":   {ops, "1/s"},
		"op_ms_p50":   {p50, "ms"},
		"op_ms_tail":  {tail, "ms"},
		"req_ns_mean": {req, "ns"},
		"area_mean":   {area, "lambda2"},
		"peak_mem_mb": {medianPeak(ph.memMB, peakStretch), "MB"},
	}
	// The same figures under each workload's own names.
	n := b.w.names
	lo, hi := setupS[0], setupS[0]
	for _, v := range setupS {
		lo, hi = min(lo, v), max(hi, v)
	}
	fmt.Printf("  %-16s %12.4f s   (median of %d set-ups, %.4f to %.4f)\n", "setup_s", median(setupS), len(setupS), lo, hi)
	fmt.Printf("  %-16s %12.1f MB  (median of the %s peaks of the process's memory over the window)\n", "peak_mem_mb", res.Metrics["peak_mem_mb"].Value, peakStretch)
	fmt.Printf("  %-16s %12.1f MB  (of the process over the whole run, set-up included)\n", "peak_rss_mb", peakRSSMB())
	fmt.Printf("  %-16s %12.4f     (%d failed of %d attempted)\n", "error_rate", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Printf("  %-16s %12.3f 1/s\n", n[0], ops)
	fmt.Printf("  %-16s %12.3f ms  (%d samples)\n", n[1], p50, len(ph.lat))
	fmt.Printf("  %-16s %12.3f ms  (%s)\n", n[2], tail, tailName)
	fmt.Printf("  %-16s %12.4f ns  (mean over %d distinct nets)\n", "req_ns_mean", req, len(ph.nets))
	fmt.Printf("  %-16s %12.1f lambda2\n", "area_mean", area)
	return res, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// waitCtx sleeps for d or until ctx is done.
func waitCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
