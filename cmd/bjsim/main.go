// Command bjsim runs one benchmark on one machine configuration and prints
// detailed statistics.
//
// Exit codes: 0 success, 1 usage or simulation error, 3 the machine
// deadlocked before exhausting its instruction budget, 4 cache verification
// found a diverging stored outcome, 130 the run was stopped by SIGINT or
// SIGTERM.
//
// Usage:
//
//	bjsim -bench gzip -mode blackjack -n 300000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"blackjack"
	"blackjack/internal/cli"
	"blackjack/internal/pipeline"
)

func main() {
	var (
		bench = flag.String("bench", "gzip", "benchmark name (see -list)")
		mode  = flag.String("mode", "blackjack", "machine mode: single, srt, blackjack-ns, blackjack")
		n     = flag.Int("n", 300_000, "leading-thread committed-instruction budget")
		slack = flag.Int("slack", 0, "override slack target (0 keeps Table 1 value)")
		iq    = flag.Int("iq", 0, "override issue queue size (0 keeps Table 1 value)")
		list  = flag.Bool("list", false, "list benchmarks and exit")
		trace = flag.Int("trace", 0, "print a pipeline trace of the first N events")

		ff     = flag.Int("ff", 0, "sampled run: fast-forward to this committed-instruction offset on the functional model, handing off one warmup lead earlier, and simulate only the rest cycle-accurately (0 = whole run cycle-accurate)")
		ffWarm = flag.Int("ff-warmup", 0, "fast-forward warmup lead in committed instructions before the -ff offset (0 = default)")

		traceEvents = flag.Int("trace-events", 0, "structured-trace ring capacity in events (0 = 65536); the ring keeps the last N events")

		allModes = flag.Bool("all-modes", false, "run all four modes concurrently and print each result")
		par      = flag.Int("parallel", 0, "worker pool size for batch entry points (0 = NumCPU; a plain single run always uses one machine)")

		out        = cli.OutputFlags()
		runTimeout = cli.RunTimeoutFlag()
		cache      = cli.CacheFlags()
	)
	cli.ProfileFlags()
	cli.Parse("bjsim")
	defer cli.Cleanup()

	if *list {
		fmt.Println(strings.Join(blackjack.Benchmarks(), "\n"))
		return
	}
	m, err := blackjack.ParseMode(*mode)
	if err != nil {
		cli.Fatal(err)
	}
	// SIGINT and SIGTERM both cancel the run context: the simulator stops at
	// the next poll point and bjsim exits 130.
	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()
	cfg := blackjack.DefaultConfig(m, *n)
	cfg.Ctx = ctx
	cfg.Parallel = *par
	cfg.Resilience = blackjack.Resilience{RunTimeout: *runTimeout}
	// A run whose full identity (program content, machine, mode, budget,
	// sampling plan) matches a stored entry is served from disk; tracing and
	// metrics runs bypass the cache because they want live pipeline
	// internals.
	cfg.Cache, cfg.CacheVerify = cache.Open()
	if *slack > 0 {
		cfg.Machine.Slack = *slack
	}
	if *iq > 0 {
		cfg.Machine.IssueQueue = *iq
	}
	if (out.Trace != "" || out.Metrics != "") && (*allModes || *trace > 0) {
		cli.Fatal(fmt.Errorf("-trace-out/-metrics-out apply to a plain single run (not -all-modes or -trace)"))
	}
	var otr *blackjack.Tracer
	if out.Trace != "" {
		otr = blackjack.NewTracer(*traceEvents)
		cfg.Trace = otr
	}
	var reg *blackjack.Metrics
	if out.Metrics != "" {
		reg = blackjack.NewMetrics()
		cfg.Metrics = reg
	}
	if *trace > 0 {
		runTraced(cfg, *bench, *trace)
		return
	}
	if *ff > 0 && *allModes {
		cli.Fatal(fmt.Errorf("-ff applies to a plain single run (not -all-modes)"))
	}
	if *allModes {
		rs, err := blackjack.RunAllModes(cfg.Machine, *bench, cfg.MaxInstructions)
		if err != nil {
			cli.Fatal(err)
		}
		for i, mm := range []blackjack.Mode{
			blackjack.ModeSingle, blackjack.ModeSRT,
			blackjack.ModeBlackJackNS, blackjack.ModeBlackJack,
		} {
			if i > 0 {
				fmt.Println()
			}
			printResult(rs[mm])
		}
		return
	}
	run := func() (*blackjack.Result, error) { return blackjack.Run(cfg, *bench) }
	if *ff > 0 {
		warm := *ffWarm
		if warm <= 0 {
			warm = blackjack.DefaultFFWarmup
		}
		skip := max(*ff-warm, 0)
		fmt.Printf("fast-forwarded   %d instrs (functional handoff %d before -ff %d); cycle figures cover the simulated window only\n",
			skip, warm, *ff)
		run = func() (*blackjack.Result, error) { return blackjack.RunSampled(cfg, *bench, skip) }
	}
	res, err := run()
	if err != nil {
		// A deadlock exits 3: the machine wedged before exhausting its
		// budget, the condition campaigns classify as a wedged outcome.
		cli.Fatal(err)
	}
	printResult(res)
	if otr != nil {
		if err := blackjack.WriteTraceFile(out.Trace, otr); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("trace            %s (%d events, %d dropped)\n", out.Trace, otr.Len(), otr.Dropped())
	}
	if reg != nil {
		out.WriteMetrics(reg, cache)
		fmt.Printf("metrics          %s\n", out.Metrics)
	}
	cache.Report()
}

// runTraced runs with a pipeline tracer attached and prints the
// per-instruction lifecycle listing (stage cycles, way assignments).
func runTraced(cfg blackjack.Config, bench string, events int) {
	p, err := blackjack.BenchmarkProgram(bench)
	if err != nil {
		cli.Fatal(err)
	}
	tr := &pipeline.Tracer{MaxEvents: events}
	m, err := pipeline.New(cfg.Machine, cfg.Mode, p, pipeline.WithTracer(tr))
	if err != nil {
		cli.Fatal(err)
	}
	m.Run(cfg.MaxInstructions)
	tr.Render(os.Stdout)
}

func printResult(r *blackjack.Result) {
	st := r.Stats
	fmt.Printf("benchmark        %s\n", r.Benchmark)
	fmt.Printf("mode             %s\n", r.Mode)
	fmt.Printf("cycles           %d\n", st.Cycles)
	fmt.Printf("committed        lead=%d trail=%d\n", st.Committed[0], st.Committed[1])
	fmt.Printf("IPC (leading)    %.3f\n", st.IPC())
	fmt.Printf("branches         %d (%d mispredicted)\n", st.Branches, st.Mispredicts)
	fmt.Printf("cache            %d accesses, %d L1 misses, %d L2 misses\n",
		st.Cache.Accesses, st.Cache.L1Misses, st.Cache.L2Misses)
	fmt.Printf("stores released  %d (output %s golden model)\n", st.ReleasedStores, matchWord(r.OutputMatches))
	if r.Mode != blackjack.ModeSingle {
		fmt.Printf("coverage         %.1f%% total, %.1f%% frontend, %.1f%% backend (%d pairs)\n",
			100*st.Coverage(), 100*st.FrontendDiversity(), 100*st.BackendDiversity(), st.Pairs)
		fmt.Printf("interference     %.2f%% leading-trailing, %.2f%% trailing-trailing\n",
			100*st.LTInterferenceFrac(), 100*st.TTInterferenceFrac())
		fmt.Printf("issue cycles     %.1f%% single-context\n", 100*st.SingleContextFrac())
		fmt.Printf("detections       %d\n", st.Detections)
	}
	if r.Mode != blackjack.ModeSingle {
		names := []string{"intALU", "intMul", "intDiv", "fpALU", "fpMul", "mem"}
		fmt.Printf("per-class be-div ")
		for i, name := range names {
			frac, pairs := st.ClassDiversity(i)
			if pairs == 0 {
				continue
			}
			fmt.Printf("%s=%.1f%%(%d) ", name, 100*frac, pairs)
		}
		fmt.Println()
	}
	if r.Mode == blackjack.ModeBlackJack || r.Mode == blackjack.ModeBlackJackNS {
		fmt.Printf("shuffle          %d packets in, %d out, %d splits, %d NOPs (%d NOPs executed)\n",
			st.ShuffleInPackets, st.ShuffleOutPackets, st.ShuffleSplits, st.ShuffleNOPs, st.NOPsExecuted)
	}
}

func matchWord(ok bool) string {
	if ok {
		return "matches"
	}
	return "DIFFERS FROM"
}
