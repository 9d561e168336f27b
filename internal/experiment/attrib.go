package experiment

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/workload"
)

// AttribRow is one application's cycle-attribution profile under the
// two-phase runtime: where every virtual cycle of the TxRace run went
// (phase ledger) and which causes its aborts charged to (abort ledger).
type AttribRow struct {
	App      *workload.Workload
	Makespan int64
	Races    int
	Attrib   obs.LedgerSnapshot
}

// Attrib is the cycle-attribution experiment: the profiler's answer to the
// paper's Figures 6 and 9 — instead of inferring the overhead breakdown from
// abort counts and cost-model arithmetic, every cycle is charged to a phase
// as it is spent, and the engine verifies the ledger against the thread
// clocks exactly.
type Attrib struct {
	Rows []AttribRow
}

// RunAttrib profiles every given application (all of them when apps is nil)
// under TxRace with an attribution ledger attached: one observed job per
// app on the worker pool. Each job forks the parent observer, so per-app
// snapshots are private to the job and deterministic at any cfg.Jobs; the
// forks also merge back into cfg.Obs, so a caller-attached registry or
// ledger sees the experiment-wide totals.
func RunAttrib(cfg Config, apps []*workload.Workload) (*Attrib, error) {
	cfg = cfg.withDefaults()
	if apps == nil {
		apps = workload.All()
	}
	// Attribution needs an observer with a ledger: forks inherit "has a
	// ledger" from the parent (obs.Observer.Fork), so attach one here when
	// the caller didn't.
	if cfg.Obs == nil {
		cfg.Obs = obs.New(nil, nil)
	}
	if cfg.Obs.Ledger() == nil {
		cfg.Obs.AttachLedger(obs.NewLedger())
	}

	plan := cfg.newPlan()
	handles := make([]*runner.Handle, len(apps))
	for i, w := range apps {
		w := w
		job := runner.Job{Workload: w.Name, Runtime: "txrace", Seed: cfg.Seed}
		handles[i] = observedJob(plan, job, cfg, func(c Config, seed uint64) (*AttribRow, error) {
			r, err := RunTxRace(w, c, seed)
			if err != nil {
				return nil, err
			}
			return &AttribRow{App: w, Makespan: r.Makespan, Races: len(r.Races),
				Attrib: c.Obs.Ledger().Snapshot()}, nil
		})
	}
	if err := plan.Run(); err != nil {
		return nil, err
	}

	a := &Attrib{}
	for _, h := range handles {
		a.Rows = append(a.Rows, *h.Value().(*AttribRow))
	}
	return a, nil
}

// Write renders the attribution profile: one summary table of per-app phase
// shares (the Figure 6/9 shape), then each application's full per-thread
// breakdown and abort-cause mix.
func (a *Attrib) Write(w io.Writer) {
	report.Section(w, "Cycle attribution: where TxRace's cycles go, per application")
	tb := &report.Table{Header: []string{"application", "cycles",
		"app%", "fast%", "slow%", "abort%", "governor%", "sample%", "sched%"}}
	for _, r := range a.Rows {
		tot := r.Attrib.Total
		tb.Add(r.App.Name, tot.Total,
			phasePct(tot, obs.PhaseApp), phasePct(tot, obs.PhaseFast),
			phasePct(tot, obs.PhaseSlow), phasePct(tot, obs.PhaseAbort),
			phasePct(tot, obs.PhaseGovernor), phasePct(tot, obs.PhaseSample),
			phasePct(tot, obs.PhaseSched))
	}
	tb.Write(w)
	for _, r := range a.Rows {
		fmt.Fprintf(w, "\n%s: makespan %d cycles, %d races\n", r.App.Name, r.Makespan, r.Races)
		obs.WriteAttrib(w, r.Attrib)
	}
}

func phasePct(a obs.ThreadAttrib, p obs.Phase) string {
	if a.Total == 0 {
		return report.FormatFixed(0, 1)
	}
	return report.FormatFixed(100*float64(a.Phases[p.String()])/float64(a.Total), 1)
}

// JSON returns the attribution profile as plain data.
func (a *Attrib) JSON() any {
	type row struct {
		App      string             `json:"app"`
		Makespan int64              `json:"makespan"`
		Races    int                `json:"races"`
		Attrib   obs.LedgerSnapshot `json:"attrib"`
	}
	var rows []row
	for _, r := range a.Rows {
		rows = append(rows, row{r.App.Name, r.Makespan, r.Races, r.Attrib})
	}
	return rows
}
