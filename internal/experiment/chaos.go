package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ChaosRow is one (application, fault intensity) point of the chaos sweep.
type ChaosRow struct {
	App       *workload.Workload
	Intensity float64
	Overhead  float64 // makespan vs the uninstrumented baseline
	Races     int
	Recall    float64 // vs the fault-free reference run (same governor config)
	Sound     bool    // race set identical to the reference's
	Injected  uint64  // faults injected, all kinds
	Forced    uint64  // regions the governor forced onto the slow path
	Trips     uint64  // per-thread governor degradations
	Global    uint64  // run-wide degradation windows
}

// Chaos is the fault-injection sweep: every application runs once fault-free
// (the reference, intensity 0) and once per intensity under a scaled
// fault.StandardPlan, all with the same governor configuration — so
// injection is the only variable and the reference's race set is the
// soundness yardstick at every intensity.
type Chaos struct {
	Intensities []float64
	Rows        []ChaosRow
}

// ChaosIntensities is the default sweep.
var ChaosIntensities = []float64{0.25, 0.5, 1}

// ChaosGovernor is the governor configuration the chaos suite runs under,
// on the reference and the faulted runs alike: a short (8-region) abort
// window so sustained fault storms trip it within a small workload, plus
// one governor-budgeted retry of unknown aborts.
func ChaosGovernor() core.GovernorConfig {
	return core.GovernorConfig{Enabled: true, Window: 8, UnknownRetryBudget: 1}
}

// ChaosSuite is the differential suite: purpose-built workloads whose race
// sets are schedule-robust, so set equality against the fault-free reference
// is a sound acceptance bar at every intensity. The evaluation applications
// are deliberately NOT in it — TxRace's detection on them is
// schedule-dependent (Fig 10 is about exactly this), so perturbing the
// schedule with faults legitimately changes which races a single run
// observes; bodytrack and facesim additionally carry deferred
// (init-then-publish) races that a governor-forced slow region catches
// where the fast path cannot, growing the set under degradation. Run those
// through the sweep explicitly with -app for the informative
// recall-vs-intensity curve; the suite here is the soundness proof.
//
// The suite workloads make every race pair detectable with certainty under
// any schedule: each pair's two sites are hammered tens of times from two
// never-synchronizing threads, and FastTrack's shadow state persists, so
// any interleaving records both sides and reports the pair. Faults can only
// reshuffle which path (HTM or slow) observes each repetition.
func ChaosSuite() []*workload.Workload {
	return []*workload.Workload{chaosHammer(), chaosReaders()}
}

// chaosHammer: write-write races only. Two unsynchronized threads each run
// 30×scale iterations writing the same six racy variables; a syscall per
// iteration cuts the loop into one transactional region per iteration (six
// static accesses — above the K=5 small threshold) and gives the
// SyscallCluster fault kind something to cluster on. Remaining threads are
// race-free ballast: lock-ordered writes to a shared counter plus churn
// over private lines for capacity pressure.
func chaosHammer() *workload.Workload {
	return &workload.Workload{
		Name:      "chaoshammer",
		SlowScale: 1,
		Paper:     workload.Paper{TSanRaces: 6, TxRaceRaces: 6, TSanOverhead: 1, TxRaceOverhead: 1, Recall: 1},
		Build: func(threads, scale int) *workload.Built {
			b := workload.NewB()
			races := make([]workload.RacyVar, 6)
			for i := range races {
				races[i] = b.NewRacyVar()
			}
			// The two hammers carry different compute costs and staggered
			// starts: identical periods would keep them in lockstep phases
			// (regions never overlapping in simulated time) and no
			// conflict — or race — would ever materialize.
			hammer := func(stagger, work int64, access func(workload.RacyVar) *sim.MemAccess) []sim.Instr {
				var body []sim.Instr
				body = append(body, workload.Work(work))
				for _, rv := range races {
					body = append(body, access(rv), workload.Work(work/8))
				}
				body = append(body, &sim.Syscall{Name: "tick", Cycles: 25})
				return []sim.Instr{workload.Work(stagger), b.LoopN(30*scale, body...)}
			}
			workers := [][]sim.Instr{
				hammer(0, 40, workload.RacyVar.WriteA),
				hammer(17, 57, workload.RacyVar.WriteB),
			}
			for len(workers) < threads {
				workers = append(workers, chaosBallast(b, scale))
			}
			return &workload.Built{
				Prog:  &sim.Program{Name: "chaoshammer", Workers: workers},
				Races: races,
			}
		},
	}
}

// chaosReaders: write-read races. The writer hammers four racy variables;
// two reader threads hammer the same variables' read sites, never
// synchronizing with the writer. Reader regions carry extra local traffic
// so they clear the small-region threshold and present a bigger HTM
// footprint (capacity-burst fodder).
func chaosReaders() *workload.Workload {
	return &workload.Workload{
		Name:      "chaosreaders",
		SlowScale: 1,
		Paper:     workload.Paper{TSanRaces: 4, TxRaceRaces: 4, TSanOverhead: 1, TxRaceOverhead: 1, Recall: 1},
		Build: func(threads, scale int) *workload.Built {
			b := workload.NewB()
			races := make([]workload.RacyVar, 4)
			for i := range races {
				races[i] = b.NewRacyVar()
			}
			var wbody []sim.Instr
			wbody = append(wbody, workload.Work(50))
			for _, rv := range races {
				wbody = append(wbody, rv.WriteA(), workload.Work(7))
			}
			wbody = append(wbody, &sim.Syscall{Name: "flush", Cycles: 25})
			writer := []sim.Instr{b.LoopN(30*scale, wbody...)}

			// Each reader gets private scratch (shared scratch would be a
			// race of its own) and a distinct period so neither locksteps
			// with the writer.
			reader := func(stagger, work int64) []sim.Instr {
				scratch := b.AllocLines(4)
				var body []sim.Instr
				body = append(body, workload.Work(work))
				for _, rv := range races {
					body = append(body, rv.ReadB(), workload.Work(work/8))
				}
				body = append(body, b.Churn(scratch, 4, 5, true))
				body = append(body, &sim.Syscall{Name: "poll", Cycles: 25})
				return []sim.Instr{workload.Work(stagger), b.LoopN(30*scale, body...)}
			}
			workers := [][]sim.Instr{writer, reader(13, 35), reader(29, 61)}
			for len(workers) < threads {
				workers = append(workers, chaosBallast(b, scale))
			}
			return &workload.Built{
				Prog:  &sim.Program{Name: "chaosreaders", Workers: workers},
				Races: races,
			}
		},
	}
}

// chaosBallast is a race-free worker: lock-ordered shared-counter updates
// interleaved with churn over a private region. It adds scheduling noise,
// sync-object traffic, and HTM capacity pressure without contributing any
// race pair, so the ground-truth set stays exactly the RacyVars'.
func chaosBallast(b *workload.B, scale int) []sim.Instr {
	mu := b.Sync()
	ctr := b.AllocLines(1)
	private := b.AllocLines(6)
	return []sim.Instr{b.LoopN(10*scale,
		&sim.Lock{M: mu},
		b.Write(sim.Fixed(ctr)),
		&sim.Unlock{M: mu},
		b.Churn(private, 6, 8, true),
	)}
}

// chaosPlanJob runs one (app, fault plan) point under the chaos governor.
// An empty plan compiles to no injector at all — the reference run.
func chaosPlanJob(p *runner.Plan, w *workload.Workload, cfg Config, label string, mk func(seed uint64) fault.Plan) *runner.Handle {
	job := runner.Job{Workload: w.Name, Runtime: "txrace-chaos(" + label + ")", Seed: cfg.Seed}
	return observedJob(p, job, cfg, func(c Config, seed uint64) (*TxRaceRun, error) {
		return RunTxRaceFault(w, c, seed, mk(seed), ChaosGovernor())
	})
}

// chaosJob runs one (app, intensity) point of the sweep.
func chaosJob(p *runner.Plan, w *workload.Workload, cfg Config, intensity float64) *runner.Handle {
	return chaosPlanJob(p, w, cfg, fmt.Sprintf("%g", intensity), func(seed uint64) fault.Plan {
		return fault.StandardPlan(seed, intensity)
	})
}

// sameRaceSet compares two RaceKeys results (both sorted).
func sameRaceSet(a, b []detect.PairKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunChaos executes the chaos sweep over apps (nil means ChaosSuite) at the
// given intensities (nil means ChaosIntensities, always with the reference
// point 0 prepended).
func RunChaos(cfg Config, apps []*workload.Workload, intensities []float64) (*Chaos, error) {
	cfg = cfg.withDefaults()
	if apps == nil {
		apps = ChaosSuite()
	}
	if intensities == nil {
		intensities = ChaosIntensities
	}
	points := append([]float64{0}, intensities...)
	ch := &Chaos{Intensities: points}

	plan := cfg.newPlan()
	type cell struct {
		app  *workload.Workload
		base *runner.Handle
		runs []*runner.Handle
	}
	cells := make([]cell, len(apps))
	for i, w := range apps {
		cells[i] = cell{app: w, base: baselineJob(plan, w, cfg, 0, cfg.Seed)}
		for _, in := range points {
			cells[i].runs = append(cells[i].runs, chaosJob(plan, w, cfg, in))
		}
	}
	if err := plan.Run(); err != nil {
		return nil, err
	}

	for _, c := range cells {
		base := baselineOf(c.base)
		ref := txraceOf(c.runs[0])
		for k, in := range points {
			r := txraceOf(c.runs[k])
			ch.Rows = append(ch.Rows, ChaosRow{
				App:       c.app,
				Intensity: in,
				Overhead:  float64(r.Makespan) / float64(base.Makespan),
				Races:     len(r.Races),
				Recall:    stats.Recall(r.Races, ref.Races),
				Sound:     sameRaceSet(r.Races, ref.Races),
				Injected:  r.Fault.Total(),
				Forced:    r.Stats.ForcedSlow,
				Trips:     r.Stats.GovernorTrips,
				Global:    r.Stats.GovernorGlobal,
			})
		}
	}
	return ch, nil
}

// Write renders the sweep as recall-vs-intensity per application.
func (ch *Chaos) Write(w io.Writer) {
	report.Section(w, "Chaos sweep: detection recall and overhead under injected HTM faults")
	tb := &report.Table{Header: []string{
		"application", "intensity", "overhead", "races", "recall", "sound",
		"injected", "forced slow", "trips", "global",
	}}
	for _, r := range ch.Rows {
		tb.Add(r.App.Name, r.Intensity, r.Overhead, r.Races, r.Recall, r.Sound,
			r.Injected, r.Forced, r.Trips, r.Global)
	}
	tb.Write(w)
}

// ChaosPlan is one named fault plan of the differential suite.
type ChaosPlan struct {
	Name string
	Make func(seed uint64) fault.Plan
}

// ChaosPlans are the differential suite's fault plans. Beyond two points of
// the standard sweep, the suite carries targeted plans built to force the
// governor's hand: retry storms longer than the retry budget (every storm
// is a guaranteed fallback), commit-time aborts (wasted full regions), and
// unknown-abort bursts that outlast the governor's one budgeted retry.
func ChaosPlans() []ChaosPlan {
	return []ChaosPlan{
		{"standard-0.5", func(seed uint64) fault.Plan { return fault.StandardPlan(seed, 0.5) }},
		{"standard-1", func(seed uint64) fault.Plan { return fault.StandardPlan(seed, 1) }},
		{"retry-storm", func(seed uint64) fault.Plan {
			return fault.Plan{Seed: seed + 1, Rules: []fault.Rule{
				{Kind: fault.RetryStorm, Prob: 0.05, Burst: 6},
				{Kind: fault.CommitAbort, Prob: 0.25},
			}}
		}},
		{"unknown-burst", func(seed uint64) fault.Plan {
			return fault.Plan{Seed: seed + 2, Rules: []fault.Rule{
				{Kind: fault.Unknown, Prob: 0.04, Burst: 3},
				{Kind: fault.SyscallCluster, Prob: 0.5},
			}}
		}},
	}
}

// ChaosDiffRow is one (application, fault plan) differential: the faulted
// run against the same application's fault-free reference.
type ChaosDiffRow struct {
	App      *workload.Workload
	Plan     string
	RefRaces int
	Races    int
	Sound    bool   // race set identical to the reference's
	Truth    bool   // reference's race set equals the built-in ground truth
	Injected uint64
	Forced   uint64 // regions the governor forced onto the slow path
	Trips    uint64
}

// ChaosDiff is the differential suite's result: soundness must hold on
// every row while Forced > 0 proves degradation actually engaged.
type ChaosDiff struct {
	Rows []ChaosDiffRow
}

// Sound reports whether every row kept the reference race set.
func (d *ChaosDiff) Sound() bool {
	for _, r := range d.Rows {
		if !r.Sound {
			return false
		}
	}
	return true
}

// RunChaosDiff executes the differential suite: every ChaosSuite workload
// under every ChaosPlans plan, each compared against that workload's
// fault-free run under the identical governor configuration.
func RunChaosDiff(cfg Config) (*ChaosDiff, error) {
	cfg = cfg.withDefaults()
	apps := ChaosSuite()
	plans := ChaosPlans()

	plan := cfg.newPlan()
	type cell struct {
		app  *workload.Workload
		ref  *runner.Handle
		runs []*runner.Handle
	}
	cells := make([]cell, len(apps))
	for i, w := range apps {
		cells[i] = cell{app: w, ref: chaosPlanJob(plan, w, cfg, "ref", func(uint64) fault.Plan { return fault.Plan{} })}
		for _, cp := range plans {
			cells[i].runs = append(cells[i].runs, chaosPlanJob(plan, w, cfg, cp.Name, cp.Make))
		}
	}
	if err := plan.Run(); err != nil {
		return nil, err
	}

	d := &ChaosDiff{}
	for _, c := range cells {
		ref := txraceOf(c.ref)
		truth := sameRaceSet(ref.Races, c.app.Build(cfg.Threads, cfg.Scale).AllRaceKeys())
		for k, cp := range plans {
			r := txraceOf(c.runs[k])
			d.Rows = append(d.Rows, ChaosDiffRow{
				App:      c.app,
				Plan:     cp.Name,
				RefRaces: len(ref.Races),
				Races:    len(r.Races),
				Sound:    sameRaceSet(r.Races, ref.Races),
				Truth:    truth,
				Injected: r.Fault.Total(),
				Forced:   r.Stats.ForcedSlow,
				Trips:    r.Stats.GovernorTrips,
			})
		}
	}
	return d, nil
}

// Write renders the differential suite.
func (d *ChaosDiff) Write(w io.Writer) {
	report.Section(w, "Chaos differential suite: race-set equality under injected faults")
	tb := &report.Table{Header: []string{
		"application", "plan", "ref races", "races", "sound", "truth",
		"injected", "forced slow", "trips",
	}}
	for _, r := range d.Rows {
		tb.Add(r.App.Name, r.Plan, r.RefRaces, r.Races, r.Sound, r.Truth,
			r.Injected, r.Forced, r.Trips)
	}
	tb.Write(w)
}

// JSON returns the sweep as plain data.
func (ch *Chaos) JSON() any {
	type row struct {
		App       string  `json:"app"`
		Intensity float64 `json:"intensity"`
		Overhead  float64 `json:"overhead"`
		Races     int     `json:"races"`
		Recall    float64 `json:"recall"`
		Sound     bool    `json:"sound"`
		Injected  uint64  `json:"injected"`
		Forced    uint64  `json:"forced_slow"`
		Trips     uint64  `json:"governor_trips"`
		Global    uint64  `json:"governor_global"`
	}
	var rows []row
	for _, r := range ch.Rows {
		rows = append(rows, row{r.App.Name, r.Intensity, r.Overhead, r.Races,
			r.Recall, r.Sound, r.Injected, r.Forced, r.Trips, r.Global})
	}
	return struct {
		Intensities []float64 `json:"intensities"`
		Rows        []row     `json:"rows"`
	}{ch.Intensities, rows}
}
