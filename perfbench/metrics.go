package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares; TestMetricListsMatchBenchmarkFile keeps the
// two in step.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"alloc_bytes_per_event", "B"},
}

var layerMetrics = []metricDef{
	{"workload.build_s", "s"},
	{"instrument.rewrite_s", "s"},
	{"instrument.profile_s", "s"},
	{"sim.self_s", "s"},
	{"sim.self_ns_per_instr", "ns"},
	{"sim.instructions", "count"},
	{"core.access_ns", "ns"},
	{"core.prestep_ns", "ns"},
	{"core.txbegin_ns", "ns"},
	{"core.txend_ns", "ns"},
	{"core.loopcheck_ns", "ns"},
	{"core.sync_ns", "ns"},
	{"core.slow_regions", "count"},
	{"core.loop_cuts", "count"},
	{"htm.begins", "count"},
	{"htm.commit_ratio", "ratio"},
	{"htm.aborts_conflict", "count"},
	{"htm.aborts_capacity", "count"},
	{"htm.aborts_unknown", "count"},
	{"detect.access_ns", "ns"},
	{"detect.sync_ns", "ns"},
	{"detect.join_ns", "ns"},
	{"detect.checks", "count"},
	{"detect.replay_ns_per_event", "ns"},
	{"clock.promotions", "count"},
	{"clock.collapses", "count"},
	{"clock.fallbacks", "count"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.decode_alloc_bytes_per_event", "B"},
	{"trace.stream_next_ns_per_event", "ns"},
	{"trace.bytes_per_event", "B"},
	{"trace.record_s", "s"},
	{"server.feed_ns_per_event", "ns"},
	{"server.finish_ms", "ms"},
	{"server.net_ms", "ms"},
	{"server.shed", "count"},
	{"server.sharded1_over_replay", "ratio"},
	{"server.sharded2_over_replay", "ratio"},
	{"server.sharded_alloc_bytes_per_event", "B"},
	{"obs.on_over_off", "ratio"},
	{"bench.tracing_overhead", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict, printed as the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult fills a result with the values of defs. A per-layer metric the
// workload does not exercise reads 0.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) *result {
	r := &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

func (r *result) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(r, 1), len(sorted))-1]
}

// tailPercentile picks the tail percentile for n samples: p99 once at least
// ten samples lie beyond it (n >= 1000), otherwise the highest whole
// percentile that still leaves ten samples beyond it, and the median when
// there are too few samples for any tail.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return min(99, math.Floor(100*float64(n-10)/float64(n)))
}

// beyond counts the samples that lie strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// opLog records the operations of one timed phase.
type opLog struct {
	host      *hostRef  // when set, do times the reference kernel before each operation
	lat       []float64 // per-operation wall time, s
	ref       []float64 // the kernel's time just before each operation, s
	events    uint64    // events of the operations that succeeded
	attempted int
	failed    int
	errs      []string // first few failures, for the log
}

// do runs one operation of the given event count, timing it and counting it
// as failed if it returns an error.
func (l *opLog) do(events uint64, op func() error) {
	if l.host != nil {
		l.ref = append(l.ref, l.host.sample())
	}
	start := time.Now()
	err := op()
	l.lat = append(l.lat, time.Since(start).Seconds())
	l.note(events, err)
}

// note counts an operation timed by the caller.
func (l *opLog) note(events uint64, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	l.events += events
}

func (l *opLog) merge(o *opLog) {
	l.lat = append(l.lat, o.lat...)
	l.ref = append(l.ref, o.ref...)
	l.events += o.events
	l.attempted += o.attempted
	l.failed += o.failed
	l.errs = append(l.errs, o.errs...)
}

// passSpan is one pass of a timed phase: its operations log.lat[from:to]
// and the events of those that succeeded.
type passSpan struct {
	from, to int
	events   uint64
}

// phase is a timed phase: its log, its passes, its wall time (the kernel's
// runs included) and the bytes it allocated.
type phase struct {
	log    *opLog
	passes []passSpan
	wall   time.Duration
	alloc  uint64
}

// timed runs pass in a closed loop of whole passes until d has elapsed,
// timing the reference kernel before every operation and once after the
// last. A pass is never cut short, so every run measures the same mix of
// operations.
func timed(d time.Duration, pass func(*opLog)) *phase {
	ph := &phase{log: &opLog{host: host()}}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for {
		from, events := len(ph.log.lat), ph.log.events
		pass(ph.log)
		ph.passes = append(ph.passes, passSpan{from, len(ph.log.lat), ph.log.events - events})
		if ph.wall = time.Since(start); ph.wall >= d {
			break
		}
	}
	ph.log.ref = append(ph.log.ref, ph.log.host.sample())
	runtime.ReadMemStats(&after)
	ph.alloc = after.TotalAlloc - before.TotalAlloc
	return ph
}

// scaledLatencies returns each operation's wall time scaled to the
// reference speed, in milliseconds.
func (ph *phase) scaledLatencies() []float64 {
	l := ph.log
	out := make([]float64, len(l.lat))
	for i, d := range l.lat {
		out[i] = 1e3 * scaled(d, l.ref[i], l.ref[i+1])
	}
	return out
}

// passRates returns each pass's events per second, its operations' wall
// times scaled to the reference speed.
func (ph *phase) passRates() []float64 {
	lat := ph.scaledLatencies()
	var rates []float64
	for _, p := range ph.passes {
		var t float64
		for _, ms := range lat[p.from:p.to] {
			t += ms / 1e3
		}
		rates = append(rates, float64(p.events)/t)
	}
	return rates
}

// e2eValues derives the end-to-end metrics from a timed phase and the
// scaled set-up times. It writes to out the raw figures beside them, and
// the median and tail of the scaled operation latencies with their sample
// count; these are not metrics, because on a shared machine the tail of a
// few hundred operations does not repeat from run to run.
func e2eValues(out io.Writer, setup []float64, ph *phase) map[string]float64 {
	l := ph.log
	vals := map[string]float64{
		"setup_s":               median(setup),
		"events_per_s":          median(ph.passRates()),
		"alloc_bytes_per_event": perEvent(float64(ph.alloc), l.events),
	}
	lat := ph.scaledLatencies()
	sort.Float64s(lat)
	p := tailPercentile(len(lat))
	var opTime float64
	for _, d := range l.lat {
		opTime += d
	}
	fmt.Fprintf(out, "timed: %d passes, %d operations over %.3f s; raw %.6g events/s of unscaled operation time; reference kernel median %.3f ms (nominal %v)\n",
		len(ph.passes), len(l.lat), ph.wall.Seconds(), float64(l.events)/opTime, 1e3*median(l.ref), refNominal)
	fmt.Fprintf(out, "latency, scaled: p50 %.4g ms, p%g %.4g ms (nearest rank, %d samples beyond it)\n",
		percentile(lat, 50), p, percentile(lat, p), beyond(len(lat), p))
	return vals
}

// perEvent divides x by the event count (0 when there are none).
func perEvent(x float64, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return x / float64(events)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// repeatSetup runs setup n times, discarding all but the last state, and
// returns that state with every set-up time, in seconds, scaled to the
// reference speed by timing the reference kernel around each.
func repeatSetup[S any](n int, setup func() (S, error)) (S, []float64, error) {
	var s S
	var ts []float64
	h := host()
	ref := h.sample()
	for i := 0; i < n; i++ {
		start := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return s, nil, err
		}
		d := time.Since(start).Seconds()
		after := h.sample()
		ts = append(ts, scaled(d, ref, after))
		ref = after
	}
	return s, ts, nil
}
