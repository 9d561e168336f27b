package main

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/instrument"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fleet1024 runs the txscale application at 1024 simulated threads under
// TSan with the default sparse clocks. One operation is one program run.

const (
	fleetThreads = 1024
	fleetScale   = 2
)

// fleetOutcome is the checked output of one run.
type fleetOutcome struct {
	Makespan int64
	Checks   uint64
	Races    uint64 // keyHash of the race keys
}

type fleetState struct {
	seed   uint64
	w      *workload.Workload
	events uint64
	ref    fleetOutcome
}

// setupFleet builds the program, counts its events and computes the
// reference output on the dense clock representation, an implementation of
// the vector clocks independent of the sparse one under measurement.
func setupFleet(seed uint64) (*fleetState, error) {
	w, err := workload.ByName("txscale")
	if err != nil {
		return nil, err
	}
	s := &fleetState{seed: seed, w: w}
	built := w.Build(fleetThreads, fleetScale)
	if s.events, err = countEvents(w, built, seed); err != nil {
		return nil, err
	}
	cfg := s.config()
	cfg.RefDense = true
	r, err := experiment.RunTSan(w, cfg, seed)
	if err != nil {
		return nil, err
	}
	s.ref = fleetOutcome{Makespan: r.Makespan, Checks: r.Checks, Races: keyHash(r.Races)}
	return s, nil
}

func (s *fleetState) config() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Threads, cfg.Scale, cfg.Seed, cfg.Jobs = fleetThreads, fleetScale, s.seed, 1
	return cfg
}

func (s *fleetState) check(got fleetOutcome) error {
	if got != s.ref {
		return fmt.Errorf("txscale@%d: output %+v differs from reference %+v", fleetThreads, got, s.ref)
	}
	if pin, ok := pinnedFleet[s.seed]; ok && got != pin {
		return fmt.Errorf("txscale@%d: output %+v differs from pinned %+v", fleetThreads, got, pin)
	}
	return nil
}

// op runs the program once through the experiment package.
func (s *fleetState) op() error {
	r, err := experiment.RunTSan(s.w, s.config(), s.seed)
	if err != nil {
		return err
	}
	return s.check(fleetOutcome{Makespan: r.Makespan, Checks: r.Checks, Races: keyHash(r.Races)})
}

func fleetSetup(o *options) (*fleetState, []float64, error) {
	s, setup, err := repeatSetup(setupReps, func() (*fleetState, error) { return setupFleet(o.seed) })
	if err == nil {
		fmt.Fprintf(o.stdout, "txscale@%d: %d events, makespan %d, checks %d, races %016x\n",
			fleetThreads, s.events, s.ref.Makespan, s.ref.Checks, s.ref.Races)
	}
	return s, setup, err
}

func fleetE2E(o *options) (map[string]float64, *opLog, error) {
	s, setup, err := fleetSetup(o)
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

func fleetTraced(o *options) (map[string]float64, *opLog, error) {
	s, _, err := fleetSetup(o)
	if err != nil {
		return nil, nil, err
	}
	log := &opLog{}
	log.do(s.events, s.op)
	clockCost := calibrateClock()
	var iters []map[string]float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.duration; i++ {
		untraced := timeIt(func() { log.note(s.events, s.op()) })
		var vals map[string]float64
		var err error
		traced := timeIt(func() { vals, err = s.tracedOp(o.tr, clockCost) })
		log.note(s.events, err)
		if err != nil {
			continue
		}
		vals["bench.tracing_overhead"] = traced.Seconds() / untraced.Seconds()
		iters = append(iters, vals)
	}
	return medians(iters), log, nil
}

// tracedOp runs the program through the traced pipeline and returns its
// per-layer values.
func (s *fleetState) tracedOp(tr *tracer, clockCost float64) (map[string]float64, error) {
	op := tr.begin("fleet.run", -1)
	defer tr.end(op)
	var built *workload.Built
	build := tr.timeSpan("workload.build", op, func() { built = s.w.Build(fleetThreads, fleetScale) })
	prog := rewrite(tr, op, func() *sim.Program { return instrument.ForTSan(built.Prog) })
	rt := newTSan(s.w)
	run, err := runTimed(tr, op, s.w, s.seed, prog, rt)
	if err != nil {
		return nil, err
	}
	det := rt.Detector()
	if err := s.check(fleetOutcome{Makespan: run.res.Makespan, Checks: det.Checks, Races: keyHash(det.RaceKeys())}); err != nil {
		return nil, err
	}
	self := run.selfNS(clockCost)
	cs := det.ClockStats()
	return map[string]float64{
		"workload.build_s":      build.Seconds(),
		"instrument.rewrite_s":  tr.total("instrument.rewrite", op).Seconds(),
		"sim.self_s":            self / 1e9,
		"sim.instructions":      float64(run.res.Instructions),
		"sim.self_ns_per_instr": perEvent(self, run.res.Instructions),
		"detect.access_ns":      run.hooks.meanNS(hkAccess, clockCost),
		"detect.sync_ns":        run.hooks.meanNS(hkSync, clockCost),
		"detect.join_ns":        run.hooks.meanNS(hkJoin, clockCost),
		"detect.checks":         float64(det.Checks),
		"clock.promotions":      float64(cs.Promotions),
		"clock.collapses":       float64(cs.Collapses),
		"clock.fallbacks":       float64(cs.Fallbacks),
	}, nil
}
