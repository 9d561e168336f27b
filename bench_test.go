package txrace_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/htm"
	"repro/internal/instrument"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The benchmarks below regenerate the paper's evaluation artifacts (§8):
// one benchmark per table and figure, plus ablations of the design choices
// DESIGN.md calls out. Measured shape metrics are attached with
// b.ReportMetric, so `go test -bench . -benchmem` prints, next to the
// wall-clock cost of regenerating each artifact, the reproduction's key
// numbers (overheads in x, recall, races).

func benchCfg() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Trials = 1
	return cfg
}

func mustApp(b *testing.B, name string) *workload.Workload {
	b.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkTable1 regenerates Table 1 over all 14 applications and reports
// the geometric-mean overheads (paper: TSan 11.68x, TxRace 4.65x).
func BenchmarkTable1(b *testing.B) {
	var last *experiment.Table1
	for i := 0; i < b.N; i++ {
		t, err := experiment.RunTable1(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.GeoTSanOverhead, "tsan-ovh-x")
	b.ReportMetric(last.GeoTxRaceOverhead, "txrace-ovh-x")
}

// BenchmarkTable1PerApp regenerates each application's Table 1 row
// separately so per-app costs and overheads are visible.
func BenchmarkTable1PerApp(b *testing.B) {
	for _, w := range workload.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var last *experiment.Table1
			for i := 0; i < b.N; i++ {
				t, err := experiment.RunTable1(benchCfg(), []*workload.Workload{w})
				if err != nil {
					b.Fatal(err)
				}
				last = t
			}
			r := last.Rows[0]
			b.ReportMetric(r.TSanOverhead, "tsan-ovh-x")
			b.ReportMetric(r.TxRaceOverhead, "txrace-ovh-x")
			b.ReportMetric(float64(r.TxRaceRaces), "races")
		})
	}
}

// BenchmarkTable2 regenerates the cost-effectiveness table (paper geomeans:
// normalized overhead 0.38, recall 0.95, cost-effectiveness 2.38).
func BenchmarkTable2(b *testing.B) {
	var last *experiment.Table1
	for i := 0; i < b.N; i++ {
		t, err := experiment.RunTable1(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(last.GeoNormOverhead, "norm-ovh")
	b.ReportMetric(last.GeoRecall, "recall")
	b.ReportMetric(last.GeoCostEff, "cost-eff")
}

// BenchmarkFig7 regenerates the overhead breakdown and reports the geomean
// of the pure fast-path component (paper: 17%).
func BenchmarkFig7(b *testing.B) {
	var last *experiment.Fig7
	for i := 0; i < b.N; i++ {
		f, err := experiment.RunFig7(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	var xs []float64
	for _, r := range last.Rows {
		xs = append(xs, 1+r.XbeginXend)
	}
	b.ReportMetric(stats.Geomean(xs)-1, "fastpath-ovh")
}

// BenchmarkFig8 regenerates the 2/4/8-thread scalability sweep on the
// interrupt-sensitive subset.
func BenchmarkFig8(b *testing.B) {
	apps := []*workload.Workload{
		mustApp(b, "fluidanimate"), mustApp(b, "canneal"), mustApp(b, "streamcluster"),
	}
	var last *experiment.Fig8
	for i := 0; i < b.N; i++ {
		f, err := experiment.RunFig8(benchCfg(), apps)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	var unk4, unk8 float64
	for _, r := range last.Rows {
		unk4 += float64(r.Unknowns[4])
		unk8 += float64(r.Unknowns[8])
	}
	b.ReportMetric(unk8/max(unk4, 1), "unknown-8v4")
}

// BenchmarkFig9 regenerates the loop-cut comparison on the
// capacity-dominated applications.
func BenchmarkFig9(b *testing.B) {
	apps := []*workload.Workload{
		mustApp(b, "swaptions"), mustApp(b, "bodytrack"), mustApp(b, "vips"),
	}
	var last *experiment.Fig9
	for i := 0; i < b.N; i++ {
		f, err := experiment.RunFig9(benchCfg(), apps)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	var no, prof []float64
	for _, r := range last.Rows {
		no = append(no, r.NoOpt)
		prof = append(prof, r.Prof)
	}
	b.ReportMetric(stats.Geomean(no), "noopt-ovh-x")
	b.ReportMetric(stats.Geomean(prof), "prof-ovh-x")
}

// BenchmarkFig10 regenerates the vips distinct-races-across-runs experiment
// (paper: ~79 per run, cumulative 112 by run 7).
func BenchmarkFig10(b *testing.B) {
	var last *experiment.Fig10
	for i := 0; i < b.N; i++ {
		f, err := experiment.RunFig10(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.ReportMetric(float64(last.PerRun[0]), "races-run1")
	b.ReportMetric(float64(last.Cumulative[6]), "races-cum7")
}

// BenchmarkFig11 regenerates the cost-effectiveness-vs-sampling comparison
// over the race-bearing applications.
func BenchmarkFig11(b *testing.B) {
	var last *experiment.Fig11
	for i := 0; i < b.N; i++ {
		f, err := experiment.RunFig11(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	var tx []float64
	for _, r := range last.Rows {
		tx = append(tx, r.TxRace)
	}
	b.ReportMetric(stats.Geomean(tx), "txrace-ce")
}

// BenchmarkFig12And13 regenerates the bodytrack sampling sweep and reports
// TxRace's operating point (paper: overhead 0.69, recall 0.75).
func BenchmarkFig12And13(b *testing.B) {
	var last *experiment.Fig1213
	for i := 0; i < b.N; i++ {
		f, err := experiment.RunFig1213(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.ReportMetric(last.TxRaceOverhead, "txrace-ovh")
	b.ReportMetric(last.TxRaceRecall, "txrace-recall")
}

// ---- Ablations of the design choices DESIGN.md calls out. ----

func runOnce(b *testing.B, w *workload.Workload, iOpts instrument.Options, opts core.Options, seed uint64) (*core.TxRace, *sim.Result) {
	b.Helper()
	built := w.Build(4, 1)
	opts.SlowScale = w.SlowScale
	rt := core.NewTxRace(opts)
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	if w.InterruptEvery != 0 {
		cfg.InterruptEvery = w.InterruptEvery
	}
	res, err := sim.NewEngine(cfg).Run(instrument.ForTxRace(built.Prog, iOpts), rt)
	if err != nil {
		b.Fatal(err)
	}
	return rt, res
}

func baselineOnce(b *testing.B, w *workload.Workload, seed uint64) *sim.Result {
	b.Helper()
	built := w.Build(4, 1)
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	if w.InterruptEvery != 0 {
		cfg.InterruptEvery = w.InterruptEvery
	}
	res, err := sim.NewEngine(cfg).Run(built.Prog, &core.Baseline{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationTxFail measures what the global-abort protocol buys:
// recall with and without artificially aborting in-flight transactions
// (§3 / §6 reason 2).
func BenchmarkAblationTxFail(b *testing.B) {
	// fluidanimate's regions are short relative to the abort+rollback
	// latency: without the TxFail global abort, the conflicting partner
	// commits before the slow-path replay re-touches the variable, and the
	// race is lost — the protocol's contribution is directly visible.
	w := mustApp(b, "fluidanimate")
	for _, disabled := range []bool{false, true} {
		name := "txfail-on"
		if disabled {
			name = "txfail-off"
		}
		b.Run(name, func(b *testing.B) {
			var races float64
			for i := 0; i < b.N; i++ {
				rt, _ := runOnce(b, w, instrument.DefaultOptions(),
					core.Options{DisableTxFail: disabled, LoopCut: core.DynCut}, uint64(i)+1)
				races = float64(rt.Detector().RaceCount())
			}
			b.ReportMetric(races, "races")
		})
	}
}

// BenchmarkAblationK sweeps the small-region threshold (paper: K = 5).
// Small K pushes tiny regions onto the HTM (management cost); large K sends
// real work through the software detector.
func BenchmarkAblationK(b *testing.B) {
	w := mustApp(b, "streamcluster")
	for _, k := range []int{1, 5, 20, 60} {
		b.Run("K="+itoa(k), func(b *testing.B) {
			var ovh float64
			for i := 0; i < b.N; i++ {
				base := baselineOnce(b, w, uint64(i)+1)
				_, res := runOnce(b, w, instrument.Options{K: k, LoopChecks: true},
					core.Options{LoopCut: core.DynCut}, uint64(i)+1)
				ovh = float64(res.Makespan) / float64(base.Makespan)
			}
			b.ReportMetric(ovh, "ovh-x")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationGranularity compares the real cache-line-granular HTM
// with an idealized word-granular one on the false-sharing-dominated
// application: conflicts (and their slow-path cost) largely disappear.
func BenchmarkAblationGranularity(b *testing.B) {
	w := mustApp(b, "dedup")
	for _, gran := range []struct {
		name  string
		shift int
	}{{"line64B", 6}, {"word8B", 3}} {
		b.Run(gran.name, func(b *testing.B) {
			var conflicts, ovh float64
			for i := 0; i < b.N; i++ {
				opts := core.Options{LoopCut: core.DynCut}
				opts.HTM = htm.DefaultConfig()
				opts.HTM.GranularityShift = gran.shift
				base := baselineOnce(b, w, uint64(i)+1)
				rt, res := runOnce(b, w, instrument.DefaultOptions(), opts, uint64(i)+1)
				conflicts = float64(rt.Stats().ConflictAborts)
				ovh = float64(res.Makespan) / float64(base.Makespan)
			}
			b.ReportMetric(conflicts, "conflicts")
			b.ReportMetric(ovh, "ovh-x")
		})
	}
}

// BenchmarkFutureHTMTargetedSlowPath evaluates the §9 "future HTM"
// extension: with a machine that exposes the conflicting address (as the
// paper envisions after TxIntro), conflict episodes monitor only the
// conflicting line. On the episode-heavy vips this collapses the slow-path
// cost while keeping conflict-line race detection.
func BenchmarkFutureHTMTargetedSlowPath(b *testing.B) {
	w := mustApp(b, "vips")
	for _, targeted := range []bool{false, true} {
		name := "commodity-rtm"
		if targeted {
			name = "future-htm"
		}
		b.Run(name, func(b *testing.B) {
			var ovh, races float64
			for i := 0; i < b.N; i++ {
				opts := core.Options{LoopCut: core.DynCut}
				opts.HTM = htm.DefaultConfig()
				if targeted {
					opts.HTM.ExposeConflictAddress = true
					opts.TargetedSlowPath = true
				}
				base := baselineOnce(b, w, uint64(i)+1)
				rt, res := runOnce(b, w, instrument.DefaultOptions(), opts, uint64(i)+1)
				ovh = float64(res.Makespan) / float64(base.Makespan)
				races = float64(rt.Detector().RaceCount())
			}
			b.ReportMetric(ovh, "ovh-x")
			b.ReportMetric(races, "races")
		})
	}
}

// BenchmarkAblationRetry sweeps the retry budget for pure-retry aborts
// (§4.2): zero budget degrades every transient abort into a slow region.
func BenchmarkAblationRetry(b *testing.B) {
	w := mustApp(b, "ferret")
	for _, budget := range []int{-1, 3, 10} {
		b.Run("budget"+itoa(max(budget, 0)), func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				opts := core.Options{LoopCut: core.DynCut, RetryOnlyFraction: 0.8}
				opts.RetryBudget = budget // -1 → effectively zero retries
				rt, _ := runOnce(b, w, instrument.DefaultOptions(), opts, uint64(i)+1)
				st := rt.Stats()
				slow = float64(st.SlowRegions[core.CauseUnknown])
			}
			b.ReportMetric(slow, "slow-regions")
		})
	}
}

// BenchmarkDetectorAlgorithms replays one recorded facesim trace through the
// detector-algorithm family: FastTrack (the slow path's algorithm, after
// [21]), the Djit⁺-style full-vector-clock detector it optimizes
// (MultiRace, [58]), the bounded-shadow TSan mode, and the Eraser lockset
// baseline — quantifying why the paper's slow path is built on FastTrack.
func BenchmarkDetectorAlgorithms(b *testing.B) {
	w := mustApp(b, "facesim")
	built := w.Build(4, 1)
	rec := trace.NewRecorder("facesim")
	cfg := sim.DefaultConfig()
	if w.InterruptEvery != 0 {
		cfg.InterruptEvery = w.InterruptEvery
	}
	if _, err := sim.NewEngine(cfg).Run(instrument.ForTSan(built.Prog), rec); err != nil {
		b.Fatal(err)
	}
	tr := rec.T

	b.Run("fasttrack", func(b *testing.B) {
		var races int
		for i := 0; i < b.N; i++ {
			races = trace.Replay(tr).RaceCount()
		}
		b.ReportMetric(float64(races), "races")
		b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("djit-vc", func(b *testing.B) {
		var races int
		for i := 0; i < b.N; i++ {
			races = trace.ReplayVC(tr).RaceCount()
		}
		b.ReportMetric(float64(races), "races")
		b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("lockset", func(b *testing.B) {
		var v int
		for i := 0; i < b.N; i++ {
			v = trace.ReplayLockset(tr).RaceCount()
		}
		b.ReportMetric(float64(v), "reports")
		b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkAblationConflictPolicy compares RTM's requester-wins resolution
// against the responder-wins alternative from the conflict-management design
// space (Bobba et al., the paper's [7]). TxRace's TxFail protocol still
// functions under responder-wins (the non-transactional TxFail write cannot
// be refused), so detection holds; what shifts is who aborts and how much
// work each episode wastes.
func BenchmarkAblationConflictPolicy(b *testing.B) {
	w := mustApp(b, "fluidanimate")
	for _, responder := range []bool{false, true} {
		name := "requester-wins"
		if responder {
			name = "responder-wins"
		}
		b.Run(name, func(b *testing.B) {
			var ovh, races, conflicts float64
			for i := 0; i < b.N; i++ {
				opts := core.Options{LoopCut: core.DynCut}
				opts.HTM = htm.DefaultConfig()
				opts.HTM.ResponderWins = responder
				base := baselineOnce(b, w, uint64(i)+1)
				rt, res := runOnce(b, w, instrument.DefaultOptions(), opts, uint64(i)+1)
				ovh = float64(res.Makespan) / float64(base.Makespan)
				races = float64(rt.Detector().RaceCount())
				conflicts = float64(rt.Stats().ConflictAborts)
			}
			b.ReportMetric(ovh, "ovh-x")
			b.ReportMetric(races, "races")
			b.ReportMetric(conflicts, "conflicts")
		})
	}
}
