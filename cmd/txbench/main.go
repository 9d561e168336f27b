// Command txbench regenerates the paper's evaluation artifacts. Each table
// and figure of §8 has an experiment id:
//
//	txbench -exp table1            # Table 1: stats + overheads, all apps
//	txbench -exp table2            # Table 2: cost-effectiveness
//	txbench -exp fig7              # overhead breakdown
//	txbench -exp fig8              # scalability (2/4/8 threads)
//	txbench -exp fig9              # loop-cut optimization schemes
//	txbench -exp fig10             # distinct races across runs (vips)
//	txbench -exp fig11             # cost-effectiveness vs sampling
//	txbench -exp fig12 / fig13     # bodytrack overhead/recall vs sampling
//	txbench -exp precision         # extension: lockset (Eraser) vs TSan
//	txbench -exp shadow            # extension: bounded TSan shadow cells (§5)
//	txbench -exp detectability     # extension: per-race detection frequency
//	txbench -exp chaos (or -chaos) # extension: fault-injection sweep (recall
//	                               # + overhead vs intensity, soundness check)
//	txbench -exp attrib            # extension: cycle-attribution profile
//	                               # (measured Figure 6/9 phase breakdown)
//	txbench -exp backends          # extension: HTM conflict backend matrix
//	                               # (dir/tag/bounded x workloads)
//	txbench -exp threads           # extension: threads-scaling curve
//	                               # (sparse/delta clocks vs dense reference)
//	txbench -exp all               # everything
//
// Use -app to restrict table1/table2/fig7/fig9 to one application, -scale to
// enlarge the workloads, -trials to average over seeds, and -seed to move
// the whole experiment to a different schedule. Every experiment executes
// its runs as an internal/runner job plan on a worker pool: -jobs bounds the
// pool (default GOMAXPROCS), and output is byte-identical at any -jobs value
// because results and metrics merge in plan order. Baseline runs and ProfCut
// profiles are memoized across jobs and across experiment ids within one
// invocation. With -metrics-out, each experiment id runs with a fresh
// internal/obs metrics registry attached and the file receives a JSON map of
// experiment id -> metrics snapshot.
//
// With -telemetry, one HTTP endpoint serves /metrics (Prometheus text
// exposition), /snapshot (JSON) and /attrib (attribution ledger) for the
// experiment currently running; -telemetry-linger keeps the process (and the
// endpoint, pointed at the last experiment's registry) alive after the run,
// for scrapes that arrive late. -flight-out arms the post-mortem flight
// recorder. Telemetry is read-only: experiment output is byte-identical with
// it on or off.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/bench"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "table1", "experiment id (table1, table2, fig7..fig13, all)")
		chaos      = flag.Bool("chaos", false, "run the chaos fault-injection sweep (shorthand for -exp chaos)")
		app        = flag.String("app", "", "restrict to one application")
		trials     = flag.Int("trials", 1, "trials to average over")
		format     = flag.String("format", "text", "output format: text | json")
		metricsOut = flag.String("metrics-out", "", "write per-experiment metrics snapshots (JSON map) here")
		benchOut   = flag.String("bench-out", "", "run the micro benchmark suite, time each experiment, write BENCH JSON here")
		benchGate  = flag.Bool("bench-gate", false, "with -bench-out: exit nonzero if the micro suite fails the allocation regression gate")
		benchBase  = flag.String("bench-baseline", "", "with -bench-out -bench-gate: also gate htm/access rows against this committed BENCH_<n>.json trajectory")
		threadsCts = flag.String("threads-counts", "", "comma-separated thread counts for -exp threads and the bench threads_scaling section (default 64,256,1024)")
		shardsCts  = flag.String("shards", "1,4,8", "comma-separated shard counts for the bench shard_scaling section")
		linger     = flag.Duration("telemetry-linger", 0, "with -telemetry: keep serving this long after the experiments finish")
	)
	common := cli.AddFlags()
	obsFlags := cli.AddObsFlags()
	flag.Parse()
	if err := common.Validate(); err != nil {
		fatal(err)
	}

	cfg := common.ExperimentConfig()
	cfg.Trials = *trials

	counts, err := parseCounts(*threadsCts)
	if err != nil {
		fatal(err)
	}
	shardCounts, err := parseShards(*shardsCts)
	if err != nil {
		fatal(err)
	}

	apps := workload.All()
	if *app != "" {
		w, err := workload.ByName(*app)
		if err != nil {
			fatal(err)
		}
		apps = []*workload.Workload{w}
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table1", "table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "precision", "shadow", "detectability", "chaos", "attrib", "backends", "threads"}
	}
	if *chaos {
		ids = []string{"chaos"}
	}

	ob, err := obsFlags.Open(nil, nil)
	if err != nil {
		fatal(err)
	}
	defer ob.Close()

	// One fresh registry (and attribution ledger) per experiment id, so each
	// snapshot describes exactly the runs that experiment performed; the
	// telemetry endpoint and flight recorder re-point at the current pair.
	snapshots := map[string]obs.Snapshot{}
	var expTimes []benchExperiment
	for _, id := range ids {
		rcfg := cfg
		if *metricsOut != "" || obsFlags.Enabled() {
			metrics := obs.NewMetrics()
			ledger := obs.NewLedger()
			rcfg.Obs = obs.New(ob.Sink(), metrics)
			rcfg.Obs.AttachLedger(ledger)
			ob.SetTarget(metrics, ledger)
		}
		start := time.Now()
		if err := run(id, rcfg, apps, counts, *format); err != nil {
			ob.OnError(err)
			fatal(err)
		}
		expTimes = append(expTimes, benchExperiment{
			ID:     id,
			WallMs: report.FormatFixed(float64(time.Since(start).Microseconds())/1000, 2),
		})
		if *metricsOut != "" {
			snapshots[id] = rcfg.Obs.Metrics().Snapshot()
		}
	}
	if *metricsOut != "" {
		if err := writeSnapshots(*metricsOut, snapshots); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics %s (%d experiments)\n", *metricsOut, len(snapshots))
	}
	if *benchOut != "" {
		ecfg := cfg
		ecfg.Obs = nil
		if err := writeBench(*benchOut, expTimes, *benchGate, *benchBase, ecfg, apps, counts, shardCounts); err != nil {
			fatal(err)
		}
	}
	if obsFlags.Telemetry != "" && *linger > 0 {
		fmt.Fprintf(os.Stderr, "telemetry lingering %v on http://%s/metrics\n", *linger, ob.Telemetry.Addr())
		time.Sleep(*linger)
	}
}

// benchExperiment is one experiment's wall-clock measurement in the -bench-out
// file. Wall time is inherently noisy; fixed-precision formatting keeps the
// file shape stable so trajectory diffs highlight only the numbers.
type benchExperiment struct {
	ID     string `json:"id"`
	WallMs string `json:"wall_ms"`
}

// benchFile is the -bench-out JSON layout, versioned by Schema. The micro
// suite pairs map/* (pre-refactor hash-map shadow layouts, kept in-tree as
// reference implementations) with paged/* variants of the same workload, so
// one file documents the before/after trajectory of the hot-path rebuild.
// v2 adds per-backend htm/access/* micro rows and the table1_per_app
// end-to-end section: one row per (application, conflict backend) from a
// real backend-matrix run. v3 adds detect/join/{dense,sparse} scaling micro
// rows plus the threads_scaling section: the txscale curve from a real
// experiment.RunThreads run, with the sparse/dense cross-check recorded.
// v4 adds detect/shard/{1,4,8} micro rows, the wire section (bytes/event
// for both trace wire versions), and the shard_scaling section: end-to-end
// sharded-replay events/sec per shard count. The detect/replay micro row
// and the shard_over_replay section report each detect/shard/N row against
// sequential trace.Replay of the same trace.
type benchFile struct {
	Schema          string             `json:"schema"`
	Micro           []bench.Result     `json:"micro"`
	ShardOverReplay []bench.ShardRatio `json:"shard_over_replay"`
	Wire            []bench.WireRow    `json:"wire"`
	ShardScaling    []bench.ShardRow   `json:"shard_scaling"`
	Table1PerApp    []benchE2E         `json:"table1_per_app"`
	ThreadsScaling  []benchThreadsRow  `json:"threads_scaling"`
	Experiments     []benchExperiment  `json:"experiments"`
}

// benchThreadsRow is one thread count of the scaling curve: deterministic
// behaviour (races, checks, clock-representation counters, the sparse≡dense
// cross-check) plus the normalized detection overhead.
type benchThreadsRow struct {
	Threads    int    `json:"threads"`
	Races      int    `json:"races"`
	Checks     uint64 `json:"checks"`
	Overhead   string `json:"overhead"`
	Promotions uint64 `json:"clock_promotions"`
	Collapses  uint64 `json:"clock_collapses"`
	Fallbacks  uint64 `json:"clock_fallbacks"`
	DenseMatch bool   `json:"dense_match"`
}

// benchE2E is one end-to-end (application, backend) row: overhead over the
// uninstrumented baseline and recall against planted ground truth, from
// experiment.RunBackends.
type benchE2E struct {
	App      string `json:"app"`
	Backend  string `json:"backend"`
	Overhead string `json:"overhead"`
	Recall   string `json:"recall"`
	SlowRate string `json:"slow_rate"`
}

func writeBench(path string, exps []benchExperiment, gate bool, baselinePath string, cfg experiment.Config, apps []*workload.Workload, counts, shardCounts []int) error {
	fmt.Println("running micro benchmark suite...")
	micro := bench.RunMicro()
	ratios := bench.ShardRatios(micro)
	for _, r := range ratios {
		fmt.Printf("%s / detect/replay = %s\n", r.Name, r.OverReplay)
	}
	wire, err := bench.WireRows()
	if err != nil {
		return err
	}
	fmt.Println("running shard-scaling throughput...")
	shardRows, err := bench.ShardScaling(shardCounts)
	if err != nil {
		return err
	}
	fmt.Println("running backend matrix for end-to-end rows...")
	matrix, err := experiment.RunBackends(cfg, apps)
	if err != nil {
		return err
	}
	var e2e []benchE2E
	for _, r := range matrix.Rows {
		e2e = append(e2e, benchE2E{
			App: r.App.Name, Backend: r.Backend,
			Overhead: report.FormatFixed(r.Overhead, 2),
			Recall:   report.FormatFixed(r.Recall, 2),
			SlowRate: report.FormatFixed(r.SlowRate, 2),
		})
	}
	fmt.Println("running threads-scaling curve...")
	th, err := experiment.RunThreads(cfg, counts)
	if err != nil {
		return err
	}
	var trows []benchThreadsRow
	for _, r := range th.Rows {
		trows = append(trows, benchThreadsRow{
			Threads: r.Threads, Races: r.Races, Checks: r.Checks,
			Overhead:   report.FormatFixed(r.Overhead, 2),
			Promotions: r.Clock.Promotions, Collapses: r.Clock.Collapses,
			Fallbacks: r.Clock.Fallbacks, DenseMatch: r.DenseMatch,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(benchFile{Schema: "txrace-bench/v4", Micro: micro, ShardOverReplay: ratios, Wire: wire, ShardScaling: shardRows, Table1PerApp: e2e, ThreadsScaling: trows, Experiments: exps})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("wrote bench %s (%d micro, %d e2e, %d threads, %d experiments)\n", path, len(micro), len(e2e), len(trows), len(exps))
	if gate {
		if err := bench.Gate(micro); err != nil {
			return err
		}
		if baselinePath != "" {
			base, err := readBenchBaseline(baselinePath)
			if err != nil {
				return err
			}
			if err := bench.GateBaseline(micro, base); err != nil {
				return err
			}
		}
		fmt.Println("bench gate: ok")
	}
	return nil
}

// readBenchBaseline loads the micro rows of a committed trajectory file
// (any schema version) for GateBaseline.
func readBenchBaseline(path string) ([]bench.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("bench baseline %s: %w", path, err)
	}
	return bf.Micro, nil
}

func writeSnapshots(path string, snaps map[string]obs.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}

// parseCounts parses the -threads-counts list; empty means the driver's
// DefaultThreadCounts.
func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad -threads-counts entry %q (want integers >= 2)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseShards parses the -shards list (shard counts may be 1).
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shards entry %q (want integers >= 1)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(id string, cfg experiment.Config, apps []*workload.Workload, counts []int, format string) error {
	var text func()
	var data any
	switch id {
	case "table1":
		t, err := experiment.RunTable1(cfg, apps)
		if err != nil {
			return err
		}
		text, data = func() { t.WriteTable1(os.Stdout) }, t.JSON()
	case "table2":
		t, err := experiment.RunTable1(cfg, apps)
		if err != nil {
			return err
		}
		text, data = func() { t.WriteTable2(os.Stdout) }, t.JSON()
	case "fig7":
		f, err := experiment.RunFig7(cfg, apps)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "fig8":
		f, err := experiment.RunFig8(cfg, apps)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "fig9":
		f, err := experiment.RunFig9(cfg, apps)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "fig10":
		f, err := experiment.RunFig10(cfg)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "fig11":
		f, err := experiment.RunFig11(cfg)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "fig12", "fig13":
		f, err := experiment.RunFig1213(cfg)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "precision":
		f, err := experiment.RunPrecision(cfg, apps)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "detectability":
		f, err := experiment.RunDetectability(cfg, apps, 5)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "shadow":
		f, err := experiment.RunShadow(cfg, apps)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "attrib":
		f, err := experiment.RunAttrib(cfg, apps)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	case "backends":
		// The matrix sweeps every backend itself; the flag-selected backend
		// only chooses what the *other* experiment ids run under.
		f, err := experiment.RunBackends(cfg, apps)
		if err != nil {
			return err
		}
		text, data = func() { f.WriteBackends(os.Stdout) }, f.JSON()
	case "threads":
		// The curve always runs txscale (the only workload calibrated to
		// arbitrary thread counts); -app and -threads do not apply here,
		// -threads-counts selects the points.
		f, err := experiment.RunThreads(cfg, counts)
		if err != nil {
			return err
		}
		text, data = func() { f.WriteThreads(os.Stdout) }, f.JSON()
	case "chaos":
		// An explicit -app restriction carries through; the unrestricted
		// default is the curated ChaosSuite, not every application.
		capps := apps
		if len(capps) != 1 {
			capps = nil
		}
		f, err := experiment.RunChaos(cfg, capps, nil)
		if err != nil {
			return err
		}
		text, data = func() { f.Write(os.Stdout) }, f.JSON()
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"experiment": id, "data": data})
	}
	text()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "txbench:", err)
	os.Exit(1)
}
