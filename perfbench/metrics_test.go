package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// parseResult reads the result from the last non-empty line of a run's
// standard output.
func parseResult(out string) (*result, error) {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	var r result
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("parse result line %q: %w", last, err)
	}
	if r.Metrics == nil {
		return nil, fmt.Errorf("result line %q has no metrics", last)
	}
	return &r, nil
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 21, 37, 50, 99, 100, 101, 378, 420, 999, 1000, 1040, 4017, 100000} {
		p := tailPercentile(n)
		if b := beyond(n, p); b < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want >= 10", n, p, b)
		}
		// The next whole percentile up (capped at 99) would leave fewer
		// than ten, so p is the highest that qualifies.
		if p < 99 && beyond(n, p+1) >= 10 {
			t.Errorf("n=%d: p%g is not the highest percentile with ten samples beyond it", n, p)
		}
	}
	if p := tailPercentile(1000); p != 99 {
		t.Errorf("tailPercentile(1000) = %g, want 99", p)
	}
	if p := tailPercentile(5); p != 50 {
		t.Errorf("tailPercentile(5) = %g, want the median", p)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {100, 1000}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2, 10}, 2.5}, {[]float64{5, 1, 9}, 5}, {nil, 0}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestOpLogCountsEventsOfSucceededOperations(t *testing.T) {
	l := &opLog{}
	l.do(100, func() error { return nil })
	l.do(50, func() error { return errors.New("differs") })
	l.note(7, nil)
	if l.attempted != 3 || l.failed != 1 || l.events != 107 || len(l.lat) != 2 || len(l.ref) != 0 {
		t.Fatalf("log = %+v, want 3 attempted, 1 failed, 107 events, 2 latencies, no kernel times", l)
	}
	o := &opLog{}
	o.do(1, func() error { return nil })
	l.merge(o)
	if l.attempted != 4 || l.events != 108 || len(l.lat) != 3 {
		t.Fatalf("merged log = %+v", l)
	}
}

// TestE2EValues checks that each operation is scaled by the kernel times
// on either side of it, that events_per_s is the median pass rate, and
// that alloc_bytes_per_event divides by the events of the whole phase.
func TestE2EValues(t *testing.T) {
	nom := refNominal.Seconds()
	ph := &phase{
		log: &opLog{
			// The host runs at full speed, then half, then full again.
			lat:    []float64{1, 1, 2, 1},
			ref:    []float64{nom, nom, 2 * nom, 2 * nom, nom},
			events: 4000,
		},
		// Passes of 1, 5/3 and 2/3 seconds at the reference speed.
		passes: []passSpan{{0, 1, 1000}, {1, 3, 2000}, {3, 4, 1000}},
		wall:   5 * time.Second,
		alloc:  80000,
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	if got, want := ph.passRates(), []float64{1000, 1200, 1500}; !slices.EqualFunc(got, want, near) {
		t.Errorf("pass rates = %v, want %v", got, want)
	}
	v := e2eValues(io.Discard, []float64{3, 1, 2}, ph)
	want := map[string]float64{
		"setup_s":               2,
		"events_per_s":          1200,
		"alloc_bytes_per_event": 20,
	}
	for k, w := range want {
		if !near(v[k], w) {
			t.Errorf("%s = %g, want %g", k, v[k], w)
		}
	}
	if got := perEvent(5, 0); got != 0 {
		t.Errorf("perEvent with no events = %g, want 0", got)
	}
}

func TestTimedMeasuresAllocationAndWholePasses(t *testing.T) {
	var sink [][]byte
	passes := 0
	ph := timed(20*time.Millisecond, func(l *opLog) {
		passes++
		for range 2 {
			l.do(10, func() error {
				sink = append(sink, make([]byte, 1<<20))
				time.Sleep(time.Millisecond)
				return nil
			})
		}
	})
	l := ph.log
	if ph.wall < 20*time.Millisecond || len(ph.passes) != passes || l.attempted != 2*passes {
		t.Fatalf("wall %v, %d operations over %d passes, %d recorded", ph.wall, l.attempted, passes, len(ph.passes))
	}
	if len(l.ref) != len(l.lat)+1 {
		t.Fatalf("%d kernel times for %d operations, want one before each and one after the last", len(l.ref), len(l.lat))
	}
	if p := ph.passes[len(ph.passes)-1]; p.to != len(l.lat) || p.events != 20 {
		t.Fatalf("last pass %+v of %d operations", p, len(l.lat))
	}
	if ph.alloc < uint64(2*passes)<<20 {
		t.Fatalf("alloc %d bytes, want at least %d", ph.alloc, 2*passes<<20)
	}
	_ = sink
}

// TestReferenceKernelAllocatesNothing keeps the kernel out of the
// allocation figures it runs beside.
func TestReferenceKernelAllocatesNothing(t *testing.T) {
	h := host()
	if n := testing.AllocsPerRun(5, func() { h.sample() }); n != 0 {
		t.Fatalf("the reference kernel allocates %g times a run", n)
	}
	if got, want := scaled(3, 2, 4), refNominal.Seconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("scaled(3, 2, 4) = %g", got)
	}
}

func TestParseResultReadsOwnOutput(t *testing.T) {
	vals := map[string]float64{"setup_s": 0.5, "events_per_s": 1e6}
	var b bytes.Buffer
	b.WriteString("latency: 3 operations timed\n")
	if err := newResult(e2eMetrics, vals, 3, 0).write(&b); err != nil {
		t.Fatal(err)
	}
	r, err := parseResult(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 3 || r.Failed != 0 || len(r.Metrics) != len(e2eMetrics) {
		t.Fatalf("parsed %+v", r)
	}
	if m := r.Metrics["setup_s"]; m.Value != 0.5 || m.Unit != "s" {
		t.Fatalf("setup_s = %+v", m)
	}
	if _, err := parseResult("not json\n"); err == nil {
		t.Fatal("parsed a line that is not JSON")
	}
	if _, err := parseResult(`{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}`); err == nil {
		t.Fatal("accepted an unknown key")
	}
	if r := newResult(e2eMetrics, vals, 3, 1); r.Correct {
		t.Fatal("a run with a failed operation is correct")
	}
}

// TestMetricListsMatchBenchmarkFile keeps the metric names and units in
// this package in step with BENCHMARK.json.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d] = %s (%s), BENCHMARK.json has %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", e2eMetrics, f.EndToEnd)
	same("per_layer", layerMetrics, f.PerLayer)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, this package has %v", len(f.Workloads), workloadNames())
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which this package does not have", w.Name)
		}
	}
}

// TestReplayOutputsCheck runs the replay operation, untraced and traced,
// and the streaming service on its trace, and requires every output check
// to pass.
func TestReplayOutputsCheck(t *testing.T) {
	s, err := setupReplay(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.op(); err != nil {
		t.Fatal(err)
	}
	vals, _, err := s.tracedOp(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	lb, err := startLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer lb.close()
	log := &opLog{}
	served, err := s.serveLayers(newTracer(), lb, log)
	if err != nil || log.failed != 0 || log.attempted != 2 {
		t.Fatalf("streaming service: %v, %d of %d operations failed: %v", err, log.failed, log.attempted, log.errs)
	}
	maps.Copy(vals, served)
	for _, name := range []string{
		"trace.decode_ns_per_event", "trace.decode_alloc_bytes_per_event", "detect.replay_ns_per_event",
		"detect.checks", "server.sharded1_over_replay", "server.sharded2_over_replay",
		"server.sharded_alloc_bytes_per_event", "trace.stream_next_ns_per_event",
		"server.feed_ns_per_event", "server.finish_ms",
	} {
		if vals[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, vals[name])
		}
	}
	if vals["server.shed"] != 0 {
		t.Errorf("server.shed = %g, want 0", vals["server.shed"])
	}
}
