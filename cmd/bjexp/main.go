// Command bjexp regenerates the paper's tables and figures (and the
// extension studies) as text tables.
//
// Usage:
//
//	bjexp -exp all -n 300000
//	bjexp -exp fig7
//	bjexp -exp exta -bench gcc
//	bjexp -exp exta -journal-dir /tmp/bjexp    # crash-resumable campaigns
//
// With -journal-dir, every fault campaign inside the experiment journals its
// completed runs; an interrupted invocation re-run with the same directory
// resumes instead of recomputing. -isolate quarantines panicking or
// over-budget cells (with repro commands) and renders partial tables over the
// remaining benchmarks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"blackjack/internal/cli"
	"blackjack/internal/experiments"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/sim"
)

var experimentNames = []string{
	"table1", "fig4a", "fig4b", "fig5", "fig6", "fig7", "headline",
	"exta", "extb", "extc", "extd", "exte", "extf", "extg", "exth", "exti", "all",
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, ", "))
		n       = flag.Int("n", 300_000, "committed-instruction budget per (benchmark, mode)")
		benches = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 16)")
		bench   = flag.String("bench", "gcc", "benchmark for single-benchmark experiments (exta, extd)")
		svgDir  = flag.String("svg", "", "also render the figures as SVG charts into this directory")
		par     = flag.Int("parallel", 0, "worker count for suite/campaign/sweep fan-out (0 = NumCPU; output is identical at any value)")
		ckpt    = flag.Int64("checkpoint-interval", 0, "campaign warmup snapshot interval in cycles for the fault-injection experiments (0 = every run cold; output is identical at any value)")
		ff      = flag.Bool("ff", false, "sampled fault campaigns: fast-forward each injection's fault-free prefix on the functional model (outcome tables match full simulation; cycle-based columns of fast-forwarded runs are window-relative)")
		ffWarm  = flag.Int("ff-warmup", 0, "fast-forward warmup lead in committed instructions (0 = default)")

		calibrate = flag.Bool("calibrate", false, "run the figure suite, evaluate every paper claim of the calibration spec (PASS/DRIFT/FAIL per claim) and exit; any FAIL exits with code 5")
		calibJSON = flag.String("calib-json", "", "with -calibrate, also write the calibration report as JSON to this file")

		journalDir = flag.String("journal-dir", "", "journal every fault campaign's completed runs into this directory; re-running with the same directory resumes")

		resilience = cli.ResilienceFlags()
		out        = cli.OutputFlags()
		cache      = cli.CacheFlags()
	)
	cli.ProfileFlags()
	cli.Parse("bjexp")
	defer cli.Cleanup()

	// SIGTERM (the plain `kill` default) drains exactly like SIGINT:
	// journals flush, partial metrics merge, exit 130 with a resume hint.
	ctx, stop := cli.SignalContext()
	defer stop()

	opts := experiments.DefaultOptions()
	opts.Instructions = *n
	opts.Parallel = *par
	opts.CheckpointInterval = *ckpt
	opts.FastForward = *ff
	opts.FFWarmup = *ffWarm
	opts.Ctx = ctx
	opts.JournalDir = *journalDir
	opts.Resilience = resilience.Settings()
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			cli.Fatal(err)
		}
		cli.SetResumeHint(fmt.Sprintf("completed campaign runs journaled under %s; re-run with the same -journal-dir to resume", *journalDir))
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	opts.Cache, opts.CacheVerify = cache.Open()

	if *calibrate {
		runCalibrate(opts, *calibJSON)
		cache.Report()
		return
	}

	var metrics *obs.Registry
	if out.Metrics != "" {
		metrics = obs.NewRegistry()
		opts.Metrics = metrics
	}
	if out.Trace != "" {
		if err := writeRepresentativeTrace(out.Trace, opts, *bench); err != nil {
			cli.Fatal(err)
		}
	}

	switch *exp {
	case "table1":
		experiments.Table1(opts.Machine).Render(os.Stdout)
	case "exta":
		runExtA(opts, *bench)
	case "extc":
		runExtC(opts)
	case "extd":
		runExtD(opts, *bench)
	case "exte":
		runExtE(opts)
	case "extf":
		runExtF(opts, *bench)
	case "extg":
		runExtG(opts, *bench)
	case "exth":
		runExtH(opts)
	case "exti":
		runExtI(opts, *bench)
	case "fig4a", "fig4b", "fig5", "fig6", "fig7", "headline", "extb":
		suite := mustSuite(opts)
		renderFromSuite(suite, *exp)
		writeSVGs(suite, *svgDir)
	case "all":
		experiments.Table1(opts.Machine).Render(os.Stdout)
		fmt.Println()
		suite := mustSuite(opts)
		for _, e := range []string{"fig4a", "fig4b", "fig5", "fig6", "fig7", "headline", "extb"} {
			renderFromSuite(suite, e)
			fmt.Println()
		}
		writeSVGs(suite, *svgDir)
		runExtA(opts, *bench)
		fmt.Println()
		runExtC(opts)
		fmt.Println()
		runExtD(opts, *bench)
		fmt.Println()
		runExtE(opts)
		fmt.Println()
		runExtF(opts, *bench)
		fmt.Println()
		runExtG(opts, *bench)
		fmt.Println()
		runExtH(opts)
		fmt.Println()
		runExtI(opts, *bench)
	default:
		cli.Fatal(fmt.Errorf("unknown experiment %q (known: %s)", *exp, strings.Join(experimentNames, ", ")))
	}

	if metrics != nil {
		out.WriteMetrics(metrics, cache)
		cli.Logf("wrote metrics to %s", out.Metrics)
	}
	cache.Report()
}

// writeRepresentativeTrace runs the named benchmark once under BlackJack mode
// at the experiment budget with a tracer attached, so a suite regeneration can
// ship a pipeline timeline without tracing every (benchmark, mode) machine.
func writeRepresentativeTrace(path string, opts experiments.Options, bench string) error {
	cfg := sim.Config{Machine: opts.Machine, Mode: pipeline.ModeBlackJack, MaxInstructions: opts.Instructions}
	tr := obs.NewTracer(0)
	cfg.Trace = tr
	if _, err := sim.Run(cfg, bench); err != nil {
		return err
	}
	if err := obs.WriteTraceFile(path, tr); err != nil {
		return err
	}
	cli.Logf("wrote trace of %s (blackjack) to %s", bench, path)
	return nil
}

func mustSuite(opts experiments.Options) *experiments.Suite {
	cli.Logf("running %d benchmarks x 4 modes x %d instructions...",
		len(opts.Benchmarks), opts.Instructions)
	s, err := experiments.RunSuite(opts)
	if err != nil {
		cli.Fatal(err)
	}
	if len(s.Failures) > 0 {
		// Figures below aggregate only over benchmarks whose every cell
		// succeeded; list what was dropped and how to reproduce it.
		cli.Logf("%d cells quarantined; figures aggregate the remaining complete benchmarks", len(s.Failures))
		s.FailuresTable().Render(os.Stdout)
		fmt.Println()
	}
	return s
}

func renderFromSuite(s *experiments.Suite, exp string) {
	switch exp {
	case "fig4a":
		s.Figure4aTable().Render(os.Stdout)
	case "fig4b":
		s.Figure4bTable().Render(os.Stdout)
	case "fig5":
		s.Figure5Table().Render(os.Stdout)
	case "fig6":
		s.Figure6Table().Render(os.Stdout)
	case "fig7":
		s.Figure7Table().Render(os.Stdout)
	case "headline":
		s.HeadlineTable().Render(os.Stdout)
	case "extb":
		s.ExtBTable().Render(os.Stdout)
	}
}

func writeSVGs(suite *experiments.Suite, dir string) {
	if dir == "" {
		return
	}
	paths, err := suite.WriteSVGs(dir)
	if err != nil {
		cli.Fatal(err)
	}
	cli.Logf("wrote %d SVG figures to %s", len(paths), dir)
}

func runExtA(opts experiments.Options, bench string) {
	// Fault campaigns re-run the workload once per site; scale the budget
	// down so the full campaign stays fast.
	campaign := opts
	campaign.Instructions = min(opts.Instructions, 30_000)
	rows, err := experiments.ExtAFaultInjection(campaign, bench)
	if err != nil {
		cli.Fatal(err)
	}
	experiments.ExtATable(rows, bench).Render(os.Stdout)
}

func runExtC(opts experiments.Options) {
	campaign := opts
	campaign.Instructions = min(opts.Instructions, 20_000)
	rows, err := experiments.ExtCPayloadRAM(campaign, []string{"gzip", "equake"})
	if err != nil {
		cli.Fatal(err)
	}
	experiments.ExtCTable(rows).Render(os.Stdout)
}

func runExtD(opts experiments.Options, bench string) {
	rows, err := experiments.ExtDSweep(opts, bench, nil, nil)
	if err != nil {
		cli.Fatal(err)
	}
	experiments.ExtDTable(rows).Render(os.Stdout)
}

func runExtE(opts experiments.Options) {
	rows, err := experiments.ExtEMergingShuffle(opts, nil)
	if err != nil {
		cli.Fatal(err)
	}
	experiments.ExtETable(rows).Render(os.Stdout)
}

func runExtF(opts experiments.Options, bench string) {
	campaign := opts
	campaign.Instructions = min(opts.Instructions, 20_000)
	rows, err := experiments.ExtFMultiFault(campaign, bench, 3)
	if err != nil {
		cli.Fatal(err)
	}
	experiments.ExtFTable(rows, bench).Render(os.Stdout)
}

func runExtG(opts experiments.Options, bench string) {
	campaign := opts
	campaign.Instructions = min(opts.Instructions, 30_000)
	rows, err := experiments.ExtGSoftErrors(campaign, bench)
	if err != nil {
		cli.Fatal(err)
	}
	experiments.ExtGTable(rows, bench).Render(os.Stdout)
}

func runExtI(opts experiments.Options, bench string) {
	// Twelve campaigns (four fault kinds x three modes) re-run the workload
	// once per site; the tighter budget keeps the full table fast.
	campaign := opts
	campaign.Instructions = min(opts.Instructions, 20_000)
	rows, err := experiments.ExtISoftIntermittent(campaign, bench)
	if err != nil {
		cli.Fatal(err)
	}
	experiments.ExtITable(rows, bench).Render(os.Stdout)
}

func runExtH(opts experiments.Options) {
	study := opts
	if len(study.Benchmarks) > 4 {
		study.Benchmarks = []string{"equake", "gcc", "gzip", "sixtrack"}
	}
	study.Instructions = min(opts.Instructions, 60_000)
	rows, err := experiments.ExtHSeedRobustness(study, nil)
	if err != nil {
		cli.Fatal(err)
	}
	experiments.ExtHTable(rows, study.Benchmarks).Render(os.Stdout)
}
