// Command perfbench is the repository's benchmark. It runs one workload for
// a given time and prints, as the last line of its standard output, one
// JSON object: whether every output was correct, the operations attempted
// and failed, and the metrics. With -trace 0 these are the end-to-end
// metrics, measured with tracing off and scaled to a reference host speed
// (host.go); with -trace 1 the per-layer metrics, measured by timing calls
// into each layer from this package. README.md describes the workloads and
// metrics.
//
//	go run . -workload table1 -seed 1 -seconds 10 -trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 9

// options carry one run's settings to a workload.
type options struct {
	seed     uint64
	duration time.Duration
	tr       *tracer // non-nil in a traced run
	stdout   io.Writer
}

// workloadFn runs one workload and returns its metric values and the log
// of its operations.
type workloadFn func(*options) (map[string]float64, *opLog, error)

var workloads = map[string]struct{ e2e, traced workloadFn }{
	"table1":    {table1E2E, table1Traced},
	"fleet1024": {fleetE2E, fleetTraced},
	"replay":    {replayE2E, replayTraced},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1 | fleet1024 | replay")
	seed := fs.Uint64("seed", 1, "input seed (0 means 1)")
	secs := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	spansOut := fs.String("spans-out", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	o := &options{seed: max(*seed, 1), duration: time.Duration(*secs * float64(time.Second)), stdout: stdout}
	fn, defs := w.e2e, e2eMetrics
	if *traced == 1 {
		o.tr = newTracer()
		fn, defs = w.traced, layerMetrics
	}

	var stopProfile func() error
	if *cpuProfile != "" {
		var err error
		if stopProfile, err = startCPUProfile(*cpuProfile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	vals, log, err := fn(o)
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing the CPU profile:", err)
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, e := range log.errs {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	if o.tr != nil {
		path := *spansOut
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+*name+".json")
		}
		if err := o.tr.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	if err := newResult(defs, vals, log.attempted, log.failed).write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// startCPUProfile starts a CPU profile written to path and returns the
// function that stops it and closes the file.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timeIt returns f's wall time.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// medians reduces the per-iteration values of a traced run to their
// per-metric medians.
func medians(iters []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	keys := map[string]bool{}
	for _, it := range iters {
		for k := range it {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, it := range iters {
			xs = append(xs, it[k])
		}
		out[k] = median(xs)
	}
	return out
}
