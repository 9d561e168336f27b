package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// PrecisionRow compares detector families on one application: the
// happens-before ground truth (TSan), the Eraser-style lockset detector's
// violations, and how many of those violations are real.
type PrecisionRow struct {
	App *workload.Workload

	TrueRaces     int // happens-before (ground truth)
	Violations    int // lockset reports
	TruePositives int // violations that are real races
	FalseAlarms   int // violations with no happens-before race behind them

	LocksetOverhead float64
	TSanOverhead    float64
}

// Precision is the detector-precision experiment: the quantitative version
// of the paper's §9 argument for building the slow path on happens-before
// (FastTrack/TSan) rather than on lock-discipline inference (Eraser) —
// lockset detectors flag fork/join, condition-variable, and barrier
// synchronization as violations.
type Precision struct{ Rows []PrecisionRow }

// locksetRun holds one Eraser-style execution.
type locksetRun struct {
	makespan   int64
	violations []detect.Race
}

// locksetJob runs the workload under the Eraser lockset detector.
func locksetJob(p *runner.Plan, w *workload.Workload, cfg Config, seed uint64) *runner.Handle {
	job := runner.Job{Workload: w.Name, Runtime: "lockset", Seed: seed}
	return observedJob(p, job, cfg, func(c Config, seed uint64) (*locksetRun, error) {
		ls := core.NewLockset()
		ls.SlowScale = w.SlowScale
		res, err := runSoftware(w, c, seed, ls, "lockset")
		if err != nil {
			return nil, err
		}
		return &locksetRun{makespan: res.Makespan, violations: ls.Detector().Races()}, nil
	})
}

// RunPrecision executes the comparison over the given applications (all by
// default): per application, {baseline, TSan, lockset} jobs.
func RunPrecision(cfg Config, apps []*workload.Workload) (*Precision, error) {
	cfg = cfg.withDefaults()
	if apps == nil {
		apps = workload.All()
	}
	plan := cfg.newPlan()
	type cell struct{ base, tsan, ls *runner.Handle }
	hs := make([]cell, len(apps))
	for i, w := range apps {
		hs[i] = cell{
			base: baselineJob(plan, w, cfg, 0, cfg.Seed),
			tsan: tsanJob(plan, w, cfg, 0, cfg.Seed),
			ls:   locksetJob(plan, w, cfg, cfg.Seed),
		}
	}
	if err := plan.Run(); err != nil {
		return nil, err
	}
	p := &Precision{}
	for i, w := range apps {
		base, ts := baselineOf(hs[i].base), tsanOf(hs[i].tsan)
		ls := hs[i].ls.Value().(*locksetRun)
		row := PrecisionRow{
			App:             w,
			TrueRaces:       len(ts.Races),
			Violations:      len(ls.violations),
			LocksetOverhead: float64(ls.makespan) / float64(base.Makespan),
			TSanOverhead:    float64(ts.Makespan) / float64(base.Makespan),
		}
		// A violation is a true positive when its static pair is a real
		// race; everything else is a lock-discipline false alarm.
		var keys []detect.PairKey
		for _, v := range ls.violations {
			keys = append(keys, v.Key())
		}
		row.TruePositives = stats.Intersect(keys, ts.Races)
		row.FalseAlarms = row.Violations - row.TruePositives
		p.Rows = append(p.Rows, row)
	}
	return p, nil
}

// Write renders the precision comparison.
func (p *Precision) Write(w io.Writer) {
	report.Section(w, "Detector precision: lockset (Eraser) vs happens-before (TSan)")
	tb := &report.Table{Header: []string{
		"application", "true races", "lockset reports", "true positives", "false alarms",
		"lockset ovh", "TSan ovh",
	}}
	for _, r := range p.Rows {
		tb.Add(r.App.Name, r.TrueRaces, r.Violations, r.TruePositives, r.FalseAlarms,
			fmt.Sprintf("%.2fx", r.LocksetOverhead), fmt.Sprintf("%.2fx", r.TSanOverhead))
	}
	tb.Write(w)
}
