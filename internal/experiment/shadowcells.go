package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ShadowRow compares the sound slow-path configuration against stock TSan's
// memory-bounded shadow for one application.
type ShadowRow struct {
	App       *workload.Workload
	Sound     int         // races with exact FastTrack state
	Bounded   map[int]int // races with N shadow cells
	Recall    map[int]float64
	Evictions map[int]uint64
}

// Shadow is the §5 shadow-cell configuration experiment: the paper notes
// that stock TSan keeps N (default 4) shadow cells per 8 application bytes
// with random replacement, which "may affect soundness", and that it
// therefore configured TSan with enough cells to be sound. This experiment
// measures the soundness cost of the bounded configurations.
type Shadow struct {
	Ns   []int
	Rows []ShadowRow
}

// shadowStress builds the eviction-pressure pattern the paper's §5 caveat
// is about: a racy write whose shadow record must survive a flood of
// *ordered* reader traffic on the same granule before the racing write
// arrives. With bounded cells the record is randomly evicted and the race
// pair is lost; the sound configuration keeps it. The pattern is the
// app-level analogue of detect's TestShadowEvictionUnsoundness.
func shadowStress() *workload.Workload {
	return &workload.Workload{
		Name:      "shadowstress",
		SlowScale: 1,
		Paper:     workload.Paper{TSanRaces: 8, TxRaceRaces: 8, TSanOverhead: 1, TxRaceOverhead: 1, Recall: 1},
		Build: func(threads, scale int) *workload.Built {
			b := workload.NewB()
			sem := b.Sync()
			races := make([]workload.RacyVar, 8)
			var writer, racer []sim.Instr
			for i := range races {
				races[i] = b.NewRacyVar()
				writer = append(writer, races[i].WriteA())
			}
			// Publish to the reader flood (they synchronize with the
			// writer, so their reads are ordered — pure eviction traffic).
			// One static read site per variable keeps the ground-truth
			// race set small and interpretable.
			readSite := make([]sim.SiteID, len(races))
			for i := range readSite {
				readSite[i] = b.Site()
			}
			readers := make([][]sim.Instr, 5)
			for r := range readers {
				writer = append(writer, &sim.Signal{C: sem})
				var body []sim.Instr
				body = append(body, &sim.Wait{C: sem})
				for rep := 0; rep < 3; rep++ {
					for i := range races {
						body = append(body, workload.ReadAt(sim.Fixed(races[i].Addr), readSite[i]))
					}
				}
				readers[r] = body
			}
			// The racing writer never synchronizes; it arrives last.
			racer = append(racer, workload.Work(20_000))
			racer = append(racer, &sim.Syscall{Name: "cut", Cycles: 30})
			for i := range races {
				racer = append(racer, races[i].WriteB())
			}
			workers := append([][]sim.Instr{writer}, readers...)
			workers = append(workers, racer)
			return &workload.Built{
				Prog:  &sim.Program{Name: "shadowstress", Workers: workers},
				Races: races,
			}
		},
	}
}

// boundedResult is what a bounded-shadow job returns.
type boundedResult struct {
	races     int
	recall    float64
	evictions uint64
}

// boundedJob runs the workload under TSan with an N-cell bounded shadow and
// scores it against the sound ground truth.
func boundedJob(p *runner.Plan, w *workload.Workload, cfg Config, n int, full *TSanRun) *runner.Handle {
	job := runner.Job{Workload: w.Name, Runtime: fmt.Sprintf("tsan-bounded(N=%d)", n), Seed: cfg.Seed}
	return observedJob(p, job, cfg, func(c Config, seed uint64) (*boundedResult, error) {
		rt := core.NewTSanBounded(n, int64(seed)+int64(n))
		rt.SlowScale = w.SlowScale
		if _, err := runSoftware(w, c, seed, rt, fmt.Sprintf("bounded(N=%d)", n)); err != nil {
			return nil, err
		}
		d := rt.Detector()
		return &boundedResult{
			races:     d.RaceCount(),
			recall:    stats.Recall(d.RaceKeys(), full.Races),
			evictions: d.Evictions,
		}, nil
	})
}

// RunShadow executes the comparison over the race-bearing applications plus
// the eviction-pressure stress program, in two plan phases: the sound TSan
// ground truth for every application first, then the bounded configurations
// for those with races.
func RunShadow(cfg Config, apps []*workload.Workload) (*Shadow, error) {
	cfg = cfg.withDefaults()
	if apps == nil {
		apps = workload.All()
	}
	apps = append(apps[:len(apps):len(apps)], shadowStress())
	sh := &Shadow{Ns: []int{1, 2, 4}}

	truth := cfg.newPlan()
	fulls := make([]*runner.Handle, len(apps))
	for i, w := range apps {
		fulls[i] = tsanJob(truth, w, cfg, 0, cfg.Seed)
	}
	if err := truth.Run(); err != nil {
		return nil, err
	}

	type cell struct {
		app     *workload.Workload
		full    *TSanRun
		bounded map[int]*runner.Handle
	}
	sweep := cfg.newPlan()
	var cells []cell
	for i, w := range apps {
		full := tsanOf(fulls[i])
		if len(full.Races) == 0 {
			continue
		}
		c := cell{app: w, full: full, bounded: map[int]*runner.Handle{}}
		for _, n := range sh.Ns {
			c.bounded[n] = boundedJob(sweep, w, cfg, n, full)
		}
		cells = append(cells, c)
	}
	if err := sweep.Run(); err != nil {
		return nil, err
	}

	for _, c := range cells {
		row := ShadowRow{App: c.app, Sound: len(c.full.Races),
			Bounded: map[int]int{}, Recall: map[int]float64{}, Evictions: map[int]uint64{}}
		for _, n := range sh.Ns {
			b := c.bounded[n].Value().(*boundedResult)
			row.Bounded[n] = b.races
			row.Recall[n] = b.recall
			row.Evictions[n] = b.evictions
		}
		sh.Rows = append(sh.Rows, row)
	}
	return sh, nil
}

// Write renders the shadow-cell comparison.
func (sh *Shadow) Write(w io.Writer) {
	report.Section(w, "Shadow-cell configuration (§5): sound slow path vs bounded TSan shadow")
	tb := &report.Table{Header: []string{
		"application", "sound races",
		"N=1 races", "N=1 recall", "N=2 races", "N=2 recall", "N=4 races", "N=4 recall",
	}}
	for _, r := range sh.Rows {
		tb.Add(r.App.Name, r.Sound,
			r.Bounded[1], r.Recall[1], r.Bounded[2], r.Recall[2], r.Bounded[4], r.Recall[4])
	}
	tb.Write(w)
}
