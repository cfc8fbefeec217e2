// Command bjexp regenerates the paper's tables and figures (and the
// extension studies) as text tables.
//
// Usage:
//
//	bjexp -exp all -n 300000
//	bjexp -exp fig7
//	bjexp -exp exta -bench gcc
//	bjexp -exp exta -cache-dir /tmp/bjexp      # crash-resumable campaigns
//
// With a run store (-cache-dir), every completed run of the experiment is
// stored before it is counted; an interrupted invocation rerun on the same
// store resumes instead of recomputing. -isolate quarantines panicking or
// over-budget cells (with repro commands) and renders partial tables over the
// remaining benchmarks.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"blackjack/internal/cli"
	"blackjack/internal/experiments"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/sim"
	"blackjack/internal/stats"
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

		calibrate = flag.Bool("calibrate", false, "run the figure suite, evaluate every paper claim of the calibration spec (PASS/DRIFT/FAIL per claim) and exit; any FAIL exits with code 5")
		calibJSON = flag.String("calib-json", "", "with -calibrate, also write the calibration report as JSON to this file")

		execution  = cli.ExecutionFlags()
		resilience = cli.ResilienceFlags()
		out        = cli.OutputFlags()
		cache      = cli.CacheFlags()
	)
	cli.ProfileFlags()
	cli.Parse("bjexp")
	defer cli.Cleanup()

	// SIGTERM (the plain `kill` default) drains exactly like SIGINT:
	// partial metrics merge, exit 130 with a resume hint.
	ctx, stop := cli.SignalContext()
	defer stop()

	opts := experiments.DefaultOptions()
	opts.MaxInstructions = *n
	execution.Fill(&opts.Config)
	opts.Ctx = ctx
	opts.Resilience = resilience.Settings()
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

	switch {
	case *exp == "table1":
		experiments.Table1(opts.Machine).Render(os.Stdout)
	case *exp == "all":
		experiments.Table1(opts.Machine).Render(os.Stdout)
		fmt.Println()
		suite := mustSuite(opts)
		for _, f := range suiteFigures {
			f.table(suite).Render(os.Stdout)
			fmt.Println()
		}
		writeSVGs(suite, *svgDir)
		for i, st := range studies {
			if i > 0 {
				fmt.Println()
			}
			st.table(opts, *bench).Render(os.Stdout)
		}
	default:
		if i := slices.IndexFunc(suiteFigures, func(f suiteFigure) bool { return f.name == *exp }); i >= 0 {
			suite := mustSuite(opts)
			suiteFigures[i].table(suite).Render(os.Stdout)
			writeSVGs(suite, *svgDir)
			break
		}
		i := slices.IndexFunc(studies, func(st study) bool { return st.name == *exp })
		if i < 0 {
			cli.Fatal(fmt.Errorf("unknown experiment %q (known: %s)", *exp, strings.Join(experimentNames, ", ")))
		}
		studies[i].table(opts, *bench).Render(os.Stdout)
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
	cfg := opts.RunConfig(pipeline.ModeBlackJack, opts.Machine)
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
		len(opts.Benchmarks), opts.MaxInstructions)
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

// must ends the process on err and otherwise returns v.
func must[T any](v T, err error) T {
	if err != nil {
		cli.Fatal(err)
	}
	return v
}

// capped lowers the experiment budget to at most n instructions.
func capped(opts experiments.Options, n int) experiments.Options {
	opts.MaxInstructions = min(opts.MaxInstructions, n)
	return opts
}

// suiteFigure is an experiment rendered from the figure suite.
type suiteFigure struct {
	name  string
	table func(*experiments.Suite) *stats.Table
}

// suiteFigures are the figures one suite run renders, in -exp all order.
var suiteFigures = []suiteFigure{
	{"fig4a", (*experiments.Suite).Figure4aTable},
	{"fig4b", (*experiments.Suite).Figure4bTable},
	{"fig5", (*experiments.Suite).Figure5Table},
	{"fig6", (*experiments.Suite).Figure6Table},
	{"fig7", (*experiments.Suite).Figure7Table},
	{"headline", (*experiments.Suite).HeadlineTable},
	{"extb", (*experiments.Suite).ExtBTable},
}

// study is an extension study that runs on its own; bench names the
// benchmark of the single-benchmark studies.
type study struct {
	name  string
	table func(opts experiments.Options, bench string) *stats.Table
}

// studies are the extension studies in -exp all order. Fault campaigns
// re-run the workload once per site (Ext-I runs twelve campaigns), so
// their budgets are capped to keep the full run fast.
var studies = []study{
	{"exta", func(opts experiments.Options, bench string) *stats.Table {
		return experiments.ExtATable(must(experiments.ExtAFaultInjection(capped(opts, 30_000), bench)), bench)
	}},
	{"extc", func(opts experiments.Options, _ string) *stats.Table {
		return experiments.ExtCTable(must(experiments.ExtCPayloadRAM(capped(opts, 20_000), []string{"gzip", "equake"})))
	}},
	{"extd", func(opts experiments.Options, bench string) *stats.Table {
		return experiments.ExtDTable(must(experiments.ExtDSweep(opts, bench, nil, nil)))
	}},
	{"exte", func(opts experiments.Options, _ string) *stats.Table {
		return experiments.ExtETable(must(experiments.ExtEMergingShuffle(opts, nil)))
	}},
	{"extf", func(opts experiments.Options, bench string) *stats.Table {
		return experiments.ExtFTable(must(experiments.ExtFMultiFault(capped(opts, 20_000), bench, 3)), bench)
	}},
	{"extg", func(opts experiments.Options, bench string) *stats.Table {
		return experiments.ExtGTable(must(experiments.ExtGSoftErrors(capped(opts, 30_000), bench)), bench)
	}},
	{"exth", func(opts experiments.Options, _ string) *stats.Table {
		if len(opts.Benchmarks) > 4 {
			opts.Benchmarks = []string{"equake", "gcc", "gzip", "sixtrack"}
		}
		opts = capped(opts, 60_000)
		return experiments.ExtHTable(must(experiments.ExtHSeedRobustness(opts, nil)), opts.Benchmarks)
	}},
	{"exti", func(opts experiments.Options, bench string) *stats.Table {
		return experiments.ExtITable(must(experiments.ExtISoftIntermittent(capped(opts, 20_000), bench)), bench)
	}},
}
