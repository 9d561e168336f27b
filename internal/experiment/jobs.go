package experiment

import (
	"repro/internal/runner"
	"repro/internal/workload"
)

// Job adapters: each turns one Run* call into a declarative runner.Job so
// drivers read as "build the plan, run it, reduce it". Measured runs
// (tsan/txrace/sampling) observe through a per-job fork of the plan's parent
// observer; baseline runs stay unobserved by policy (see RunBaseline).

// newPlan returns the worker-pool plan a driver executes its jobs on.
func (c Config) newPlan() *runner.Plan {
	return runner.NewPlan(c.Jobs, c.Obs)
}

func baselineJob(p *runner.Plan, w *workload.Workload, cfg Config, trial int, seed uint64) *runner.Handle {
	return p.Add(runner.Job{Workload: w.Name, Runtime: "baseline", Trial: trial, Seed: seed,
		Do: func(j *runner.Job) (any, error) { return RunBaseline(w, cfg, j.Seed) },
	})
}

// observedJob adds a measured job: run executes with the job's scheduler
// seed under the job's private observer fork.
func observedJob[R any](p *runner.Plan, job runner.Job, cfg Config, run func(c Config, seed uint64) (R, error)) *runner.Handle {
	job.Observe = true
	job.Do = func(j *runner.Job) (any, error) {
		c := cfg
		c.Obs = j.Obs
		return run(c, j.Seed)
	}
	return p.Add(job)
}

func tsanJob(p *runner.Plan, w *workload.Workload, cfg Config, trial int, seed uint64) *runner.Handle {
	return observedJob(p, runner.Job{Workload: w.Name, Runtime: "tsan", Trial: trial, Seed: seed}, cfg,
		func(c Config, seed uint64) (*TSanRun, error) { return RunTSan(w, c, seed) })
}

func txraceJob(p *runner.Plan, w *workload.Workload, cfg Config, trial int, seed uint64) *runner.Handle {
	return observedJob(p, runner.Job{Workload: w.Name, Runtime: "txrace", Trial: trial, Seed: seed}, cfg,
		func(c Config, seed uint64) (*TxRaceRun, error) { return RunTxRace(w, c, seed) })
}

func samplingJob(p *runner.Plan, w *workload.Workload, cfg Config, trial int, seed uint64, rate float64) *runner.Handle {
	return observedJob(p, runner.Job{Workload: w.Name, Runtime: "sampling", Trial: trial, Seed: seed}, cfg,
		func(c Config, seed uint64) (*TSanRun, error) { return RunSampling(w, c, seed, rate) })
}

// Typed result accessors, nil-safe only after a successful Plan.Run.

func baselineOf(h *runner.Handle) *BaselineRun { return h.Value().(*BaselineRun) }
func tsanOf(h *runner.Handle) *TSanRun         { return h.Value().(*TSanRun) }
func txraceOf(h *runner.Handle) *TxRaceRun     { return h.Value().(*TxRaceRun) }
