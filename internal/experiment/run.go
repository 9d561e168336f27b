// Package experiment drives the paper's evaluation (§8): one driver per
// table and figure. Each driver builds a declarative internal/runner Plan of
// independent (workload, runtime, seed) jobs, executes it on a bounded
// worker pool (Config.Jobs, default GOMAXPROCS), and reduces the results in
// plan order — so output is byte-identical at any worker count while the
// wall clock scales with the hardware. Shared prerequisites (baseline runs,
// ProfCut profiles) are memoized in a Cache instead of recomputed per
// trial or figure. cmd/txbench regenerates any artifact by id;
// bench_test.go exposes the same drivers as testing.B benchmarks.
package experiment

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/htm"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config fixes one experimental setup.
type Config struct {
	Threads int
	Scale   int
	Seed    uint64
	// LoopCut selects TxRace's capacity-abort scheme; Table 1 uses the
	// paper's best configuration, ProfLoopcut.
	LoopCut core.CutMode
	// Trials averages measurements over this many seeds (paper: 5). Trial
	// seeds are drawn from runner.Seeds(Seed): trial 0 is Seed itself.
	Trials int
	// ProfileSkew models the profile-transfer error of ProfLoopcut: the
	// profiling run uses a representative input, not the measured one, so
	// transferred thresholds overshoot by this factor and the runtime's
	// threshold adaptation (§4.3) has to walk them back down. 0 means the
	// default of 1.05; 1.0 disables the skew.
	ProfileSkew float64
	// Backend selects the HTM conflict backend the TxRace runs use: "" or
	// "dir" is the line-ownership directory (the default machine,
	// bit-identical to a zero htm.Config), "tag" the HMTRace-style owner
	// tags, "bounded" the FORTH-style entry-capped sets. "refscan" runs the
	// directory backend's reference resolver — accepted here for the
	// package's differential suites, but not a CLI-valid name. The ProfCut
	// profiling pass uses the same backend as the measured run (its
	// capacity-abort pattern feeds the thresholds), so profile memoization
	// is keyed by backend too. Baselines never touch the HTM.
	Backend string
	// RefDense runs the detectors on the retained dense clock path
	// (detect.Config.RefDense) instead of the default sparse/delta
	// representation. Results are identical either way — the threads
	// scaling driver and the differential suites run both and assert it.
	RefDense bool
	// Jobs bounds the worker pool the drivers execute their job plans on;
	// 0 means GOMAXPROCS. Results are independent of the value — plans
	// merge results and metrics in plan order.
	Jobs int
	// Cache memoizes baseline runs and ProfCut profiles across jobs. Nil
	// gets a private cache per driver call; share one Cache across calls
	// (as cmd/txbench does) to also dedup across experiment ids.
	Cache *Cache
	// Obs, when non-nil, is attached to the measured runs: the engine emits
	// scheduler events, and the TxRace runtime (plus its HTM) emits the full
	// transaction lifecycle. Under a parallel plan each measured job runs
	// with a private fork whose metrics merge back in plan order (traces are
	// metrics-only there; see obs.Observer.Fork). Baseline runs stay
	// unobserved so metrics describe the detector under measurement only.
	Obs *obs.Observer
}

// DefaultConfig mirrors §8.1: four worker threads, five trials.
func DefaultConfig() Config {
	return Config{Threads: 4, Scale: 1, Seed: 1, LoopCut: core.ProfCut, Trials: 1}
}

// DefaultProfileSkew is the ProfileSkew a zero Config gets.
const DefaultProfileSkew = 1.05

func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	if c.ProfileSkew == 0 {
		c.ProfileSkew = DefaultProfileSkew
	}
	if c.Cache == nil {
		c.Cache = NewCache()
	}
	return c
}

// htmConfig translates Config.Backend into the htm.Config the runtime
// options carry. "" and "dir" return the zero config — core substitutes
// htm.DefaultConfig(), exactly the pre-seam behavior — so default-backend
// runs stay bit-identical to configs that predate backend selection.
func (c Config) htmConfig() htm.Config {
	var hc htm.Config
	switch c.Backend {
	case "", "dir":
	case "refscan":
		hc.RefScan = true
	default:
		hc.Backend = c.Backend
	}
	return hc
}

// detectConfig translates Config.RefDense into the detector clock
// configuration the runtimes carry.
func (c Config) detectConfig() detect.Config {
	return detect.Config{RefDense: c.RefDense}
}

// backendKey is the memo-key component for Config.Backend: the default
// spellings collapse to "" so "" and "dir" share cache entries.
func (c Config) backendKey() string {
	if c.Backend == "dir" {
		return ""
	}
	return c.Backend
}

func (c Config) engineConfig(w *workload.Workload, seed uint64) sim.Config {
	ec := sim.DefaultConfig()
	ec.Seed = seed
	if w.InterruptEvery != 0 {
		ec.InterruptEvery = w.InterruptEvery
	}
	ec.MaxSteps = 1 << 32
	ec.Obs = c.Obs
	return ec
}

// BaselineRun holds one uninstrumented execution. Baseline runs are memoized
// per (workload, threads, scale, seed) and may be shared between jobs:
// treat the struct as read-only.
type BaselineRun struct {
	Makespan int64
	Result   *sim.Result
}

// TSanRun holds one full-detection execution.
type TSanRun struct {
	Makespan int64
	Races    []detect.PairKey
	Checks   uint64
	// Clock carries the detector's clock-representation counters
	// (all zero on the RefDense path).
	Clock clock.Stats
}

// TxRaceRun holds one two-phase execution.
type TxRaceRun struct {
	Makespan int64
	Races    []detect.PairKey
	Stats    core.Stats
	// Fault counts the injected faults by kind (zero without a fault plan).
	Fault fault.Stats
}

// RunBaseline executes the original program. The run is memoized in
// cfg.Cache: the baseline is a deterministic, unobserved function of
// (workload, threads, scale, seed), so every trial and figure that
// normalizes against it shares one execution.
func RunBaseline(w *workload.Workload, cfg Config, seed uint64) (*BaselineRun, error) {
	cfg = cfg.withDefaults()
	cfg.Obs = nil // the baseline is the measuring stick, not the measured system
	v, err := cfg.Cache.do(memoKey{"baseline", w.Name, cfg.Threads, cfg.Scale, seed, ""}, func() (any, error) {
		built := w.Build(cfg.Threads, cfg.Scale)
		res, err := sim.NewEngine(cfg.engineConfig(w, seed)).Run(built.Prog, &core.Baseline{})
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", w.Name, err)
		}
		return &BaselineRun{Makespan: res.Makespan, Result: res}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*BaselineRun), nil
}

// RunTSan executes under full happens-before detection.
func RunTSan(w *workload.Workload, cfg Config, seed uint64) (*TSanRun, error) {
	return runTSan(w, cfg, seed, core.NewTSanWith(cfg.detectConfig()), "tsan")
}

// RunSampling executes under TSan with per-access sampling.
func RunSampling(w *workload.Workload, cfg Config, seed uint64, rate float64) (*TSanRun, error) {
	rt := core.NewSamplingWith(rate, int64(seed)+7, cfg.detectConfig())
	return runTSan(w, cfg, seed, rt, fmt.Sprintf("sampling(%.0f%%)", rate*100))
}

// runTSan runs w under a TSan runtime and collects its detector's results.
func runTSan(w *workload.Workload, cfg Config, seed uint64, rt *core.TSan, what string) (*TSanRun, error) {
	rt.SlowScale = w.SlowScale
	res, err := runSoftware(w, cfg, seed, rt, what)
	if err != nil {
		return nil, err
	}
	d := rt.Detector()
	return &TSanRun{Makespan: res.Makespan, Races: d.RaceKeys(), Checks: d.Checks, Clock: d.ClockStats()}, nil
}

// runSoftware is the shared leg of every software-detector run: build w,
// instrument it with instrument.ForTSan and run it under rt. what names the
// runtime in errors.
func runSoftware(w *workload.Workload, cfg Config, seed uint64, rt sim.Runtime, what string) (*sim.Result, error) {
	cfg = cfg.withDefaults()
	built := w.Build(cfg.Threads, cfg.Scale)
	res, err := sim.NewEngine(cfg.engineConfig(w, seed)).Run(instrument.ForTSan(built.Prog), rt)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", w.Name, what, err)
	}
	return res, nil
}

// RunTxRace executes under the two-phase runtime. For ProfCut it first runs
// the paper's profiling pass to collect loop-cut thresholds; the raw profile
// is memoized in cfg.Cache (it is deterministic and unobserved) and the skew
// is applied to a fresh copy per run, so the runtime's in-place threshold
// adaptation never leaks between jobs.
func RunTxRace(w *workload.Workload, cfg Config, seed uint64) (*TxRaceRun, error) {
	return RunTxRaceFault(w, cfg, seed, fault.Plan{}, core.GovernorConfig{})
}

// RunTxRaceFault is RunTxRace with a fault plan attached and the fallback
// governor configured. An empty plan compiles to no injector at all, and a
// zero GovernorConfig leaves the governor off, so
// RunTxRaceFault(w, cfg, seed, fault.Plan{}, core.GovernorConfig{}) is
// RunTxRace exactly; the chaos sweep's fault-free reference point instead
// keeps the governor configured so injection is the only difference.
func RunTxRaceFault(w *workload.Workload, cfg Config, seed uint64, plan fault.Plan, gov core.GovernorConfig) (*TxRaceRun, error) {
	cfg = cfg.withDefaults()
	built := w.Build(cfg.Threads, cfg.Scale)
	opts := core.Options{LoopCut: cfg.LoopCut, SlowScale: w.SlowScale, Obs: cfg.Obs,
		Fault: fault.NewIfAny(plan), Governor: gov, HTM: cfg.htmConfig(),
		Detect: cfg.detectConfig()}
	if cfg.LoopCut == core.ProfCut {
		// Profile with a different seed: representative input, not the
		// measured run. The profiling pass is unobserved so metrics and
		// traces describe the measured execution only.
		profSeed := seed ^ 0x9a0f
		pcfg := cfg
		pcfg.Obs = nil
		v, err := cfg.Cache.do(memoKey{"profile", w.Name, cfg.Threads, cfg.Scale, profSeed, cfg.backendKey()}, func() (any, error) {
			prof, err := instrument.Profile(built.Prog, pcfg.engineConfig(w, profSeed), core.Options{SlowScale: w.SlowScale, HTM: cfg.htmConfig()})
			if err != nil {
				return nil, fmt.Errorf("%s profile: %w", w.Name, err)
			}
			return prof, nil
		})
		if err != nil {
			return nil, err
		}
		raw := v.(core.LoopThresholds)
		prof := make(core.LoopThresholds, len(raw))
		for id, th := range raw {
			prof[id] = int(float64(th)*cfg.ProfileSkew) + 1
		}
		opts.Thresholds = prof
	}
	rt := core.NewTxRace(opts)
	ip := instrument.ForTxRace(built.Prog, instrument.DefaultOptions())
	res, err := sim.NewEngine(cfg.engineConfig(w, seed)).Run(ip, rt)
	if err != nil {
		return nil, fmt.Errorf("%s txrace: %w", w.Name, err)
	}
	return &TxRaceRun{
		Makespan: res.Makespan,
		Races:    rt.Detector().RaceKeys(),
		Stats:    rt.Stats(),
		Fault:    rt.FaultStats(),
	}, nil
}
