package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// table1 runs the paper's Table 1 experiment: the 14 applications, each as
// an uninstrumented baseline, under TSan and under TxRace-ProfLoopcut, at
// four threads on the default HTM backend with observability off. One
// operation is one (application, runtime) run.

const table1Threads = 4

type runtimeKind int

const (
	rtBaseline runtimeKind = iota
	rtTSan
	rtTxRace
)

var runtimeNames = [...]string{"baseline", "tsan", "txrace"}

// appOutcome is the checked output of one application's three runs.
type appOutcome struct {
	Base, TSan, TxRace int64  // makespans, cycles
	Checks             uint64 // TSan accesses analysed
	TSanRaces          uint64 // keyHash of the TSan race keys
	TxRaceRaces        uint64 // keyHash of the TxRace race keys
}

// matches compares the fields one runtime's run produces.
func (o *appOutcome) matches(k runtimeKind, ref *appOutcome) bool {
	switch k {
	case rtBaseline:
		return o.Base == ref.Base
	case rtTSan:
		return o.TSan == ref.TSan && o.Checks == ref.Checks && o.TSanRaces == ref.TSanRaces
	default:
		return o.TxRace == ref.TxRace && o.TxRaceRaces == ref.TxRaceRaces
	}
}

type table1App struct {
	w      *workload.Workload
	events uint64
}

type table1State struct {
	seed   uint64
	apps   []table1App
	buildS float64 // wall time of the 14 Build calls
}

func setupTable1(seed uint64) (*table1State, error) {
	s := &table1State{seed: seed}
	for _, w := range workload.All() {
		start := time.Now()
		built := w.Build(table1Threads, 1)
		s.buildS += time.Since(start).Seconds()
		n, err := countEvents(w, built, seed)
		if err != nil {
			return nil, err
		}
		s.apps = append(s.apps, table1App{w: w, events: n})
	}
	return s, nil
}

func (s *table1State) config() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Seed = s.seed
	cfg.Jobs = 1
	cfg.Cache = experiment.NewCache()
	return cfg
}

// runOp runs one (application, runtime) operation through the experiment
// package and records its output in out.
func (s *table1State) runOp(cfg experiment.Config, w *workload.Workload, k runtimeKind, out *appOutcome) error {
	switch k {
	case rtBaseline:
		r, err := experiment.RunBaseline(w, cfg, s.seed)
		if err != nil {
			return err
		}
		out.Base = r.Makespan
	case rtTSan:
		r, err := experiment.RunTSan(w, cfg, s.seed)
		if err != nil {
			return err
		}
		out.TSan, out.Checks, out.TSanRaces = r.Makespan, r.Checks, keyHash(r.Races)
	default:
		r, err := experiment.RunTxRace(w, cfg, s.seed)
		if err != nil {
			return err
		}
		out.TxRace, out.TxRaceRaces = r.Makespan, keyHash(r.Races)
	}
	return nil
}

// pass runs every operation once. Each pass gets a fresh experiment cache,
// so the baseline and the profile are recomputed as in one RunTable1 call.
// Outputs are checked against ref when it is non-nil.
func (s *table1State) pass(log *opLog, ref map[string]*appOutcome) map[string]*appOutcome {
	cfg := s.config()
	got := make(map[string]*appOutcome, len(s.apps))
	for _, a := range s.apps {
		out := &appOutcome{}
		got[a.w.Name] = out
		for k := rtBaseline; k <= rtTxRace; k++ {
			log.do(a.events, func() error {
				if err := s.runOp(cfg, a.w, k, out); err != nil {
					return err
				}
				return checkOutcome(a.w.Name, k, out, ref)
			})
		}
	}
	return got
}

func checkOutcome(app string, k runtimeKind, got *appOutcome, ref map[string]*appOutcome) error {
	if ref == nil {
		return nil
	}
	want, ok := ref[app]
	if !ok {
		return fmt.Errorf("%s: no reference output", app)
	}
	if !got.matches(k, want) {
		return fmt.Errorf("%s %s: output %+v differs from reference %+v", app, runtimeNames[k], *got, *want)
	}
	return nil
}

// reference runs the warm-up pass and returns the outputs later passes must
// reproduce: the pinned outputs when the seed has them (the warm-up pass is
// checked against those), otherwise the warm-up pass's own.
func (s *table1State) reference(log *opLog, stdout io.Writer) map[string]*appOutcome {
	pinned := pinnedTable1[s.seed]
	got := s.pass(log, pinned)
	writeOutcomes(stdout, s.apps, got)
	if pinned != nil {
		return pinned
	}
	return got
}

// writeOutcomes prints the outputs in the format pinnedTable1 is written
// in, and the geo-mean overheads.
func writeOutcomes(w io.Writer, apps []table1App, got map[string]*appOutcome) {
	var tsanOv, txOv []float64
	for _, a := range apps {
		o := got[a.w.Name]
		fmt.Fprintf(w, "%s %d %d %d %d %016x %016x\n", a.w.Name, o.Base, o.TSan, o.TxRace, o.Checks, o.TSanRaces, o.TxRaceRaces)
		tsanOv = append(tsanOv, float64(o.TSan)/float64(o.Base))
		txOv = append(txOv, float64(o.TxRace)/float64(o.Base))
	}
	fmt.Fprintf(w, "geo-mean overhead: TSan %.2fx, TxRace %.2fx\n", stats.Geomean(tsanOv), stats.Geomean(txOv))
}

func table1E2E(o *options) (map[string]float64, *opLog, error) {
	s, setup, err := repeatSetup(setupReps, func() (*table1State, error) { return setupTable1(o.seed) })
	if err != nil {
		return nil, nil, err
	}
	warm := &opLog{}
	ref := s.reference(warm, o.stdout)
	ph := timed(o.duration, func(l *opLog) { s.pass(l, ref) })
	vals := e2eValues(o.stdout, setup, ph)
	log := ph.log
	log.merge(warm)
	return vals, log, nil
}

func table1Traced(o *options) (map[string]float64, *opLog, error) {
	var builds []float64
	s, _, err := repeatSetup(setupReps, func() (*table1State, error) {
		s, err := setupTable1(o.seed)
		if err == nil {
			builds = append(builds, s.buildS)
		}
		return s, err
	})
	if err != nil {
		return nil, nil, err
	}
	log := &opLog{}
	ref := s.reference(log, o.stdout)
	clockCost := calibrateClock()
	var iters []map[string]float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.duration; i++ {
		untraced := timeIt(func() { s.pass(log, ref) })
		var vals map[string]float64
		traced := timeIt(func() { vals = s.tracedPass(o.tr, log, ref, clockCost) })
		vals["bench.tracing_overhead"] = traced.Seconds() / untraced.Seconds()
		vals["obs.on_over_off"] = s.obsRatio(log)
		vals["workload.build_s"] = median(builds)
		iters = append(iters, vals)
	}
	return medians(iters), log, nil
}

// tracedPass runs every application through the traced pipeline and
// returns this pass's per-layer values.
func (s *table1State) tracedPass(tr *tracer, log *opLog, ref map[string]*appOutcome, clockCost float64) map[string]float64 {
	pass := tr.begin("table1.pass", -1)
	defer tr.end(pass)
	var tsanHooks, txHooks hookStats
	var simSelf, commits float64
	var instrs uint64
	acc := map[string]float64{}
	for _, a := range s.apps {
		app := tr.begin("app "+a.w.Name, pass)
		runs, out, err := s.tracedApp(tr, app, a.w)
		tr.end(app)
		for k := rtBaseline; k <= rtTxRace; k++ {
			if err == nil {
				log.note(a.events, checkOutcome(a.w.Name, k, out, ref))
			} else {
				log.note(a.events, err)
			}
		}
		if err != nil {
			continue
		}
		for _, r := range runs.sims {
			simSelf += r.selfNS(clockCost)
			instrs += r.res.Instructions
		}
		tsanHooks.add(runs.sims[rtTSan].hooks)
		txHooks.add(runs.sims[rtTxRace].hooks)

		st, hw := runs.tx.Stats(), runs.tx.HWStats()
		for _, n := range st.SlowRegions {
			acc["core.slow_regions"] += float64(n)
		}
		acc["core.loop_cuts"] += float64(st.LoopCuts)
		acc["htm.begins"] += float64(hw.Begins)
		commits += float64(hw.Commits)
		acc["htm.aborts_conflict"] += float64(hw.ConflictAborts)
		acc["htm.aborts_capacity"] += float64(hw.CapacityAborts)
		acc["htm.aborts_unknown"] += float64(hw.UnknownAborts)
		det := runs.tsan.Detector()
		cs := det.ClockStats()
		acc["detect.checks"] += float64(det.Checks)
		acc["clock.promotions"] += float64(cs.Promotions)
		acc["clock.collapses"] += float64(cs.Collapses)
		acc["clock.fallbacks"] += float64(cs.Fallbacks)
	}
	if acc["htm.begins"] > 0 {
		acc["htm.commit_ratio"] = commits / acc["htm.begins"]
	}
	acc["instrument.rewrite_s"] = tr.total("instrument.rewrite", pass).Seconds()
	acc["instrument.profile_s"] = tr.total("instrument.profile", pass).Seconds()
	acc["sim.self_s"] = simSelf / 1e9
	acc["sim.instructions"] = float64(instrs)
	acc["sim.self_ns_per_instr"] = perEvent(simSelf, instrs)
	for name, k := range map[string]hook{
		"core.access_ns": hkAccess, "core.prestep_ns": hkPreStep,
		"core.txbegin_ns": hkTxBegin, "core.txend_ns": hkTxEnd,
		"core.loopcheck_ns": hkLoopCheck, "core.sync_ns": hkSync,
	} {
		acc[name] = txHooks.meanNS(k, clockCost)
	}
	acc["detect.access_ns"] = tsanHooks.meanNS(hkAccess, clockCost)
	acc["detect.sync_ns"] = tsanHooks.meanNS(hkSync, clockCost)
	acc["detect.join_ns"] = tsanHooks.meanNS(hkJoin, clockCost)
	return acc
}

// tracedRuns holds one application's three wrapped runs.
type tracedRuns struct {
	sims [3]*simRun // indexed by runtimeKind
	tsan *core.TSan
	tx   *core.TxRace
}

// tracedApp runs one application's baseline, TSan and TxRace runs through
// the traced pipeline.
func (s *table1State) tracedApp(tr *tracer, parent int, w *workload.Workload) (*tracedRuns, *appOutcome, error) {
	var built *workload.Built
	tr.timeSpan("workload.build", parent, func() { built = w.Build(table1Threads, 1) })
	runs := &tracedRuns{tsan: newTSan(w)}
	out := &appOutcome{}
	var err error
	if runs.sims[rtBaseline], err = runTimed(tr, parent, w, s.seed, built.Prog, &core.Baseline{}); err != nil {
		return nil, nil, fmt.Errorf("%s baseline: %w", w.Name, err)
	}
	out.Base = runs.sims[rtBaseline].res.Makespan

	prog := rewrite(tr, parent, func() *sim.Program { return instrument.ForTSan(built.Prog) })
	if runs.sims[rtTSan], err = runTimed(tr, parent, w, s.seed, prog, runs.tsan); err != nil {
		return nil, nil, fmt.Errorf("%s tsan: %w", w.Name, err)
	}
	det := runs.tsan.Detector()
	out.TSan, out.Checks, out.TSanRaces = runs.sims[rtTSan].res.Makespan, det.Checks, keyHash(det.RaceKeys())

	th, err := profiled(tr, parent, w, built, s.seed, experiment.DefaultProfileSkew)
	if err != nil {
		return nil, nil, err
	}
	runs.tx = newTxRace(w, th)
	prog = rewrite(tr, parent, func() *sim.Program { return instrument.ForTxRace(built.Prog, instrument.DefaultOptions()) })
	if runs.sims[rtTxRace], err = runTimed(tr, parent, w, s.seed, prog, runs.tx); err != nil {
		return nil, nil, fmt.Errorf("%s txrace: %w", w.Name, err)
	}
	out.TxRace, out.TxRaceRaces = runs.sims[rtTxRace].res.Makespan, keyHash(runs.tx.Detector().RaceKeys())
	return runs, out, nil
}

// obsRatio times one RunTable1 pass with a metrics registry attached and
// one without, and returns the ratio of their wall times. The rendered
// tables must be byte-identical; the comparison is one operation.
func (s *table1State) obsRatio(log *opLog) float64 {
	render := func(withObs bool) (string, time.Duration, error) {
		cfg := s.config()
		if withObs {
			cfg.Obs = obs.New(nil, obs.NewMetrics())
		}
		var t *experiment.Table1
		var err error
		d := timeIt(func() { t, err = experiment.RunTable1(cfg, nil) })
		if err != nil {
			return "", d, err
		}
		var b bytes.Buffer
		t.WriteTable1(&b)
		t.WriteTable2(&b)
		return b.String(), d, nil
	}
	on, dOn, errOn := render(true)
	off, dOff, errOff := render(false)
	switch {
	case errOn != nil:
		log.note(0, errOn)
	case errOff != nil:
		log.note(0, errOff)
	case on != off:
		log.note(0, fmt.Errorf("table1 output differs with observability on"))
	default:
		log.note(0, nil)
	}
	return dOn.Seconds() / dOff.Seconds()
}
