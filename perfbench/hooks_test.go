package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/experiment"
	"repro/internal/instrument"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestWrapperIsBatchJoinerExactlyWhenWrappedIs(t *testing.T) {
	for _, c := range []struct {
		name string
		rt   sim.Runtime
	}{
		{"baseline", &core.Baseline{}},
		{"tsan", core.NewTSan()},
		{"txrace", core.NewTxRace(core.Options{})},
		{"nop", sim.NopRuntime{}},
	} {
		_, want := c.rt.(sim.BatchJoiner)
		w, _ := wrapTimed(c.rt)
		if _, got := w.(sim.BatchJoiner); got != want {
			t.Errorf("%s: wrapper is BatchJoiner = %v, wrapped runtime = %v", c.name, got, want)
		}
	}
}

// runOutput is everything a run's caller can observe.
type runOutput struct {
	Res   *sim.Result
	Races []detect.Race
	Keys  []detect.PairKey
	Stats core.Stats
	Clock any
}

func observe(res *sim.Result, rt sim.Runtime) runOutput {
	out := runOutput{Res: res}
	switch r := rt.(type) {
	case *core.TSan:
		out.Races, out.Keys, out.Clock = r.Detector().Races(), r.Detector().RaceKeys(), r.Detector().ClockStats()
	case *core.TxRace:
		out.Races, out.Keys, out.Stats = r.Detector().Races(), r.Detector().RaceKeys(), r.Stats()
		out.Clock = r.HWStats()
	}
	return out
}

// TestWrappedRunsAreIdentical runs every Table 1 application and the
// 1024-thread fleet under each runtime with and without the hook timer:
// races, makespans, engine counters and runtime statistics must agree
// exactly.
func TestWrappedRunsAreIdentical(t *testing.T) {
	type job struct {
		w       *workload.Workload
		threads int
		scale   int
	}
	var jobs []job
	for _, w := range workload.All() {
		jobs = append(jobs, job{w, table1Threads, 1})
	}
	fleet, err := workload.ByName("txscale")
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, job{fleet, fleetThreads, fleetScale})
	const seed = 3
	for _, j := range jobs {
		built := j.w.Build(j.threads, j.scale)
		th, err := profiled(nil, -1, j.w, built, seed, experiment.DefaultProfileSkew)
		if err != nil {
			t.Fatal(err)
		}
		runtimes := []struct {
			name string
			prog *sim.Program
			make func() sim.Runtime
		}{
			{"baseline", built.Prog, func() sim.Runtime { return &core.Baseline{} }},
			{"tsan", instrument.ForTSan(built.Prog), func() sim.Runtime { return newTSan(j.w) }},
			{"txrace", instrument.ForTxRace(built.Prog, instrument.DefaultOptions()), func() sim.Runtime { return newTxRace(j.w, th.Clone()) }},
		}
		for _, r := range runtimes {
			if j.threads > 64 && r.name == "txrace" {
				continue // the HTM models at most 64 hardware contexts
			}
			plain := r.make()
			res, err := sim.NewEngine(engineConfig(j.w, seed)).Run(r.prog, plain)
			if err != nil {
				t.Fatal(err)
			}
			inner := r.make()
			run, err := runTimed(nil, -1, j.w, seed, r.prog, inner)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := observe(run.res, inner), observe(res, plain); !reflect.DeepEqual(got, want) {
				t.Errorf("%s@%d %s: wrapped run differs from the plain run", j.w.Name, j.threads, r.name)
			}
		}
	}
}

// TestTracedTable1MatchesRunTable1 holds the traced pipeline to the
// experiment: every application's traced runs reproduce RunTable1's row
// exactly, and the pinned outputs of the timed operations.
func TestTracedTable1MatchesRunTable1(t *testing.T) {
	s, err := setupTable1(1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := experiment.RunTable1(s.config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for i, a := range s.apps {
		row := tab.Rows[i]
		if row.App.Name != a.w.Name {
			t.Fatalf("row %d is %s, want %s", i, row.App.Name, a.w.Name)
		}
		runs, out, err := s.tracedApp(tr, -1, a.w)
		if err != nil {
			t.Fatal(err)
		}
		st := runs.tx.Stats()
		got := experiment.Table1Row{
			App:          row.App,
			Committed:    st.CommittedTxns,
			Conflict:     st.ConflictAborts,
			Capacity:     st.CapacityAborts,
			Unknown:      st.UnknownAborts,
			TSanRaces:    len(runs.tsan.Detector().RaceKeys()),
			TxRaceRaces:  len(runs.tx.Detector().RaceKeys()),
			BaseCycles:   out.Base,
			TSanCycles:   out.TSan,
			TxRaceCycles: out.TxRace,
		}
		want := row
		want.TSanOverhead, want.TxRaceOverhead, want.NormOverhead, want.Recall, want.CostEff = 0, 0, 0, 0, 0
		if got != want {
			t.Errorf("%s: traced row %+v, RunTable1 row %+v", a.w.Name, got, want)
		}
		if pin := pinnedTable1[1][a.w.Name]; *out != *pin {
			t.Errorf("%s: traced outputs %+v, pinned %+v", a.w.Name, *out, *pin)
		}
	}
	for _, name := range []string{"workload.build", "instrument.rewrite", "instrument.profile", "sim.run"} {
		if tr.total(name, -1) <= 0 {
			t.Errorf("no time recorded in %s spans", name)
		}
	}
}

// TestTracedPassReportsTable1Layers checks that a traced table1 pass passes
// its output checks and reports every layer the workload exercises.
func TestTracedPassReportsTable1Layers(t *testing.T) {
	s, err := setupTable1(1)
	if err != nil {
		t.Fatal(err)
	}
	log := &opLog{}
	vals := s.tracedPass(newTracer(), log, pinnedTable1[1], calibrateClock())
	if log.failed != 0 || log.attempted != 3*len(s.apps) {
		t.Fatalf("traced pass: %d of %d operations failed: %v", log.failed, log.attempted, log.errs)
	}
	for _, name := range []string{
		"instrument.rewrite_s", "instrument.profile_s", "sim.self_s", "sim.self_ns_per_instr", "sim.instructions",
		"core.access_ns", "core.prestep_ns", "core.txbegin_ns", "core.txend_ns", "core.loopcheck_ns", "core.sync_ns",
		"core.slow_regions", "core.loop_cuts", "htm.begins", "htm.commit_ratio", "htm.aborts_conflict",
		"htm.aborts_capacity", "htm.aborts_unknown", "detect.access_ns", "detect.sync_ns", "detect.join_ns",
		"detect.checks", "clock.promotions",
	} {
		if vals[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, vals[name])
		}
	}
}
