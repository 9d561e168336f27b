package main

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"time"

	"repro/internal/detect"
	"repro/internal/instrument"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replay is the offline `txtrace -in` path on an in-memory wire-v2 trace of
// vips: decode with trace.ReadFrom, detect with trace.Replay, render the
// races. One operation is one replay. Its traced run also measures the
// streaming service on the same trace (see serve.go).

const replayApp = "vips"

// recordTrace runs app at four threads under the trace recorder and returns
// the trace, the way `txtrace -app` records it.
func recordTrace(app string, seed uint64) (*trace.Trace, error) {
	w, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	ec := sim.DefaultConfig()
	ec.Seed = seed
	if w.InterruptEvery != 0 {
		ec.InterruptEvery = w.InterruptEvery
	}
	rec := trace.NewRecorder(app)
	if _, err := sim.NewEngine(ec).Run(instrument.ForTSan(w.Build(table1Threads, 1).Prog), rec); err != nil {
		return nil, fmt.Errorf("record %s: %w", app, err)
	}
	return rec.T, nil
}

// encode serializes t in wire format v2.
func encode(t *trace.Trace) ([]byte, error) {
	var b bytes.Buffer
	if _, err := t.WriteTo(&b); err != nil {
		return nil, fmt.Errorf("encode %s: %w", t.Name, err)
	}
	return b.Bytes(), nil
}

type replayState struct {
	data    []byte
	events  uint64
	want    uint64 // textHash of the rendered race list
	races   int
	recordS float64
}

// setupReplay records and encodes the trace, and renders the reference
// race list from the recorded trace directly, without the wire format, on
// server.ReplaySharded: its shard kernel and clock router implement
// FastTrack apart from the detector under measurement and give the same
// race list.
func setupReplay(seed uint64) (*replayState, error) {
	start := time.Now()
	t, err := recordTrace(replayApp, seed)
	if err != nil {
		return nil, err
	}
	s := &replayState{events: uint64(t.Len()), recordS: time.Since(start).Seconds()}
	if s.data, err = encode(t); err != nil {
		return nil, err
	}
	ref, err := server.ReplaySharded(t, 1, 1)
	if err != nil {
		return nil, err
	}
	want := raceLines(ref.Races())
	s.want, s.races = textHash(want), len(want)
	if pin, ok := pinnedReplay[seed]; ok && pin != s.want {
		return nil, fmt.Errorf("replay %s: reference race list %016x differs from pinned %016x", replayApp, s.want, pin)
	}
	return s, nil
}

func (s *replayState) check(lines []string) error {
	if h := textHash(lines); h != s.want {
		return fmt.Errorf("replay %s: race list %016x (%d races) differs from reference %016x (%d races)",
			replayApp, h, len(lines), s.want, s.races)
	}
	return nil
}

// op decodes, detects and renders once.
func (s *replayState) op() error {
	t, err := trace.ReadFrom(bytes.NewReader(s.data))
	if err != nil {
		return err
	}
	return s.check(raceLines(trace.Replay(t).Races()))
}

func replaySetup(o *options) (*replayState, []float64, error) {
	s, setup, err := repeatSetup(setupReps, func() (*replayState, error) { return setupReplay(o.seed) })
	if err == nil {
		fmt.Fprintf(o.stdout, "%s trace: %d events, %d bytes, %d races, race list %016x\n",
			replayApp, s.events, len(s.data), s.races, s.want)
	}
	return s, setup, err
}

func replayE2E(o *options) (map[string]float64, *opLog, error) {
	s, setup, err := replaySetup(o)
	if err != nil {
		return nil, nil, err
	}
	warm := &opLog{}
	warm.do(s.events, s.op)
	ph := timed(o.duration, func(l *opLog) { l.do(s.events, s.op) })
	vals := e2eValues(o.stdout, setup, ph)
	log := ph.log
	log.merge(warm)
	return vals, log, nil
}

func replayTraced(o *options) (map[string]float64, *opLog, error) {
	s, _, err := replaySetup(o)
	if err != nil {
		return nil, nil, err
	}
	lb, err := startLoopback()
	if err != nil {
		return nil, nil, err
	}
	defer lb.close()
	log := &opLog{}
	log.do(s.events, s.op)
	var iters []map[string]float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.duration; i++ {
		untraced := timeIt(func() { log.note(s.events, s.op()) })
		vals, traced, err := s.tracedOp(o.tr)
		log.note(s.events, err)
		if err != nil {
			continue
		}
		served, err := s.serveLayers(o.tr, lb, log)
		if err != nil {
			continue
		}
		maps.Copy(vals, served)
		vals["bench.tracing_overhead"] = traced.Seconds() / untraced.Seconds()
		vals["trace.record_s"] = s.recordS
		vals["trace.bytes_per_event"] = perEvent(float64(len(s.data)), s.events)
		iters = append(iters, vals)
	}
	return medians(iters), log, nil
}

// serveLayers measures the streaming service on the trace: one session
// driven in process and one stream over the loopback socket, each checked
// like a replay and logged as an operation. The socket and JSON share of
// the stream is its latency less the in-process decode, feed and finish.
func (s *replayState) serveLayers(tr *tracer, lb *loopback, log *opLog) (map[string]float64, error) {
	in, err := inProcess(s.data)
	if err == nil {
		err = checkResponse(in.resp, s.events, s.check)
	}
	log.note(s.events, err)
	if err != nil {
		return nil, err
	}
	id := tr.begin("stream", -1)
	start := time.Now()
	resp, err := lb.stream(tr, id, s.data)
	lat := time.Since(start)
	tr.end(id)
	if err == nil {
		err = checkResponse(resp, s.events, s.check)
	}
	log.note(s.events, err)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"trace.stream_next_ns_per_event": perEvent(float64(in.next), in.events),
		"server.feed_ns_per_event":       perEvent(float64(in.feed), in.events),
		"server.finish_ms":               float64(in.finish) / 1e6,
		"server.net_ms":                  float64(lat-in.next-in.feed-in.finish) / 1e6,
		"server.shed":                    float64(in.resp.Shed + resp.Shed),
	}, nil
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// tracedOp runs one replay with spans around decode, detect and render,
// then the sharded replays on the same trace. It returns the per-layer
// values and the wall time of the replay alone.
func (s *replayState) tracedOp(tr *tracer) (map[string]float64, time.Duration, error) {
	start := time.Now()
	op := tr.begin("replay", -1)
	var t *trace.Trace
	var err error
	var decode time.Duration
	decodeAlloc := allocated(func() {
		decode = tr.timeSpan("trace.decode", op, func() { t, err = trace.ReadFrom(bytes.NewReader(s.data)) })
	})
	if err != nil {
		tr.end(op)
		return nil, 0, err
	}
	var det *detect.Detector
	replay := tr.timeSpan("detect.replay", op, func() { det = trace.Replay(t) })
	var lines []string
	tr.timeSpan("render", op, func() { lines = raceLines(det.Races()) })
	tr.end(op)
	wall := time.Since(start)
	if err := s.check(lines); err != nil {
		return nil, 0, err
	}

	cs := det.ClockStats()
	vals := map[string]float64{
		"trace.decode_ns_per_event":          perEvent(float64(decode), s.events),
		"trace.decode_alloc_bytes_per_event": perEvent(float64(decodeAlloc), s.events),
		"detect.replay_ns_per_event":         perEvent(float64(replay), s.events),
		"detect.checks":                      float64(det.Checks),
		"clock.promotions":                   float64(cs.Promotions),
		"clock.collapses":                    float64(cs.Collapses),
		"clock.fallbacks":                    float64(cs.Fallbacks),
	}
	for _, k := range []int{1, 2} {
		var rep *server.Report
		var d time.Duration
		alloc := allocated(func() {
			d = tr.timeSpan(fmt.Sprintf("server.sharded%d", k), -1, func() { rep, err = server.ReplaySharded(t, k, k) })
		})
		if err != nil {
			return nil, 0, err
		}
		if err := s.check(raceLines(rep.Races())); err != nil {
			return nil, 0, fmt.Errorf("sharded(%d): %w", k, err)
		}
		vals[fmt.Sprintf("server.sharded%d_over_replay", k)] = d.Seconds() / replay.Seconds()
		if k == 1 {
			vals["server.sharded_alloc_bytes_per_event"] = perEvent(float64(alloc), s.events)
		}
	}
	return vals, wall, nil
}
