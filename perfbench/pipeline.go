package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/instrument"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The traced pipeline runs the same program as the experiment package's
// RunBaseline/RunTSan/RunTxRace, step by step, so that each step can be
// timed on its own: Build, Profile, ForTSan/ForTxRace and Engine.Run with
// the runtime wrapped by the hook timer. TestTracedTable1MatchesRunTable1
// holds it to RunTable1's rows.

// profileSeedMask mirrors experiment.RunTxRaceFault: the ProfLoopcut
// profile comes from a run under the measured seed xor this mask.
const profileSeedMask = 0x9a0f

// engineConfig mirrors the experiment package's engine configuration.
func engineConfig(w *workload.Workload, seed uint64) sim.Config {
	ec := sim.DefaultConfig()
	ec.Seed = seed
	if w.InterruptEvery != 0 {
		ec.InterruptEvery = w.InterruptEvery
	}
	ec.MaxSteps = 1 << 32
	return ec
}

// countEvents runs the uninstrumented program once and returns its
// accesses plus sync operations, the event count of every operation on it.
func countEvents(w *workload.Workload, built *workload.Built, seed uint64) (uint64, error) {
	res, err := sim.NewEngine(engineConfig(w, seed)).Run(built.Prog, &core.Baseline{})
	if err != nil {
		return 0, fmt.Errorf("%s baseline: %w", w.Name, err)
	}
	return res.Accesses + res.SyncOps, nil
}

// simRun is one wrapped Engine.Run.
type simRun struct {
	res   *sim.Result
	hooks *hookStats
	wall  time.Duration
}

// runTimed runs prog under rt wrapped by the hook timer, inside a span.
func runTimed(tr *tracer, parent int, w *workload.Workload, seed uint64, prog *sim.Program, rt sim.Runtime) (*simRun, error) {
	wrapped, hs := wrapTimed(rt)
	var res *sim.Result
	var err error
	wall := tr.timeSpan("sim.run", parent, func() {
		res, err = sim.NewEngine(engineConfig(w, seed)).Run(prog, wrapped)
	})
	if err != nil {
		return nil, err
	}
	return &simRun{res: res, hooks: hs, wall: wall}, nil
}

// selfNS is the engine's own time in a run: its wall time less the
// estimated time inside the runtime hooks.
func (r *simRun) selfNS(clockCost float64) float64 {
	return max(float64(r.wall)-r.hooks.totalNS(clockCost), 0)
}

// profiled runs the ProfLoopcut profiling pass and returns the skewed
// thresholds the measured TxRace run uses.
func profiled(tr *tracer, parent int, w *workload.Workload, built *workload.Built, seed uint64, skew float64) (core.LoopThresholds, error) {
	var raw core.LoopThresholds
	var err error
	tr.timeSpan("instrument.profile", parent, func() {
		raw, err = instrument.Profile(built.Prog, engineConfig(w, seed^profileSeedMask), core.Options{SlowScale: w.SlowScale})
	})
	if err != nil {
		return nil, fmt.Errorf("%s profile: %w", w.Name, err)
	}
	prof := make(core.LoopThresholds, len(raw))
	for id, th := range raw {
		prof[id] = int(float64(th)*skew) + 1
	}
	return prof, nil
}

// newTxRace returns the TxRace runtime RunTxRace builds for the table
// configuration: ProfLoopcut, default HTM backend, no faults, no governor.
func newTxRace(w *workload.Workload, th core.LoopThresholds) *core.TxRace {
	return core.NewTxRace(core.Options{LoopCut: core.ProfCut, SlowScale: w.SlowScale,
		Fault: fault.NewIfAny(fault.Plan{}), Thresholds: th})
}

// newTSan returns the TSan runtime RunTSan builds with the default sparse
// clocks.
func newTSan(w *workload.Workload) *core.TSan {
	rt := core.NewTSanWith(detect.Config{})
	rt.SlowScale = w.SlowScale
	return rt
}

// rewrite applies an instrumentation pass inside a span.
func rewrite(tr *tracer, parent int, f func() *sim.Program) *sim.Program {
	var p *sim.Program
	tr.timeSpan("instrument.rewrite", parent, func() { p = f() })
	return p
}

// keyHash fingerprints a race-key list.
func keyHash(keys []detect.PairKey) uint64 {
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%d-%d;", k.A, k.B)
	}
	return h.Sum64()
}

// textHash fingerprints a rendered race list.
func textHash(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// raceLines renders races the way txtrace prints them.
func raceLines(races []detect.Race) []string {
	out := make([]string, len(races))
	for i, r := range races {
		out[i] = r.String()
	}
	return out
}
